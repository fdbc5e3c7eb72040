"""The benchmark's tracer, loaded by path from the checkout, still finds
every library function it times."""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def test_tracer_resolves_every_traced_function():
    spec = importlib.util.spec_from_file_location("lkareid_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    # construction looks up each traced function and every module holding it
    patched = {fn for _owner, _key, fn, _wrapper in tracer.Tracer()._patches}
    assert len(patched) == len(tracer.TRACED)
