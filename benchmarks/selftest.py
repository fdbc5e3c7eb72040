"""Show that every output check accepts a real output and rejects a
deliberately corrupted one, and that BENCHMARK.json lists exactly the
metrics run.py reports.

    python3 benchmarks/selftest.py                    # exit 0 when all hold
    python3 benchmarks/selftest.py --write-reference  # rewrite the files in reference/

Outputs come from short real runs of the workloads the benchmark
measures, at full size.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys

import run

REFERENCE_SEED, REFERENCE_STEPS = 0, 6


def expect(results, name, problem, should_fail):
    ok = (problem is not None) == should_fail
    verdict = "rejected" if problem else "accepted"
    results.append(ok)
    print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}" + (f" ({problem})" if problem else ""))


def train_cases(results, workdir):
    import checks
    import workloads

    ref = json.loads(workloads.REFERENCE.read_text())
    losses = workloads.replay_losses(ref["seed"], 3, workdir)
    expect(results, "train: finite losses", checks.losses_finite(losses[-1]), False)
    expect(results, "train: reference trajectory",
           checks.trajectory_matches(losses, ref["losses"][:3], checks.REFERENCE_RTOL, "reference"), False)
    nan = copy.deepcopy(losses)
    nan[1]["ce_h1"] = float("nan")
    expect(results, "train: NaN loss component", checks.losses_finite(nan[1]), True)
    bumped = copy.deepcopy(losses)
    bumped[2]["total"] *= 1.0 + 1e-3
    expect(results, "train: loss perturbed by 0.1% vs replay",
           checks.trajectory_matches(bumped, losses, checks.REPLAY_RTOL, "replay"), True)
    bumped[2]["total"] *= 1.0 + 1e-2
    expect(results, "train: loss perturbed by 1% vs reference",
           checks.trajectory_matches(bumped, ref["losses"][:3], checks.REFERENCE_RTOL, "reference"), True)


def extract_cases(results, workdir):
    import numpy as np

    import checks
    import workloads

    w = workloads.ExtractGallery(0, workdir)
    w.setup()
    for _ in range(2):
        expect(results, "extract: batch rows unit norm", w.check_op(w.op()), False)
    for name, problem in w.verify():
        expect(results, f"extract: {name}", problem, False)
    single = np.concatenate(
        [workloads.model.extract_features(w.state, w.images[i : i + 1]).data for i in range(3)]
    )
    rows = w.rows[:3].copy()
    expect(results, "extract: batched rows vs one at a time",
           checks.rows_match(single, rows, checks.REEXTRACT_ATOL, "one-at-a-time"), False)
    raw = rows.copy()
    raw[1, 7] += 1e-3
    expect(results, "extract: row element perturbed by 1e-3", checks.rows_unit_norm(raw), True)
    renorm = rows.copy()
    renorm[1] += 1e-3 * np.random.default_rng(0).standard_normal(renorm.shape[1]).astype(np.float32)
    renorm[1] /= np.linalg.norm(renorm[1])
    expect(results, "extract: perturbed row, renormalized (norm check)", checks.rows_unit_norm(renorm), False)
    expect(results, "extract: perturbed row, renormalized (single vs batched)",
           checks.rows_match(single, renorm, checks.REEXTRACT_ATOL, "one-at-a-time"), True)
    ref = json.loads(workloads.EXTRACT_REFERENCE.read_text())
    fresh = workloads.reference_features(ref["seed"], ref["rows"], workdir)
    expect(results, "extract: fresh rows vs stored reference",
           checks.rows_match(fresh, ref["features"], checks.REFERENCE_ATOL, "reference"), False)
    wrong = fresh.copy()
    wrong[2] += 1e-3 * np.random.default_rng(1).standard_normal(wrong.shape[1]).astype(np.float32)
    wrong[2] /= np.linalg.norm(wrong[2])
    expect(results, "extract: reference row perturbed, renormalized (stored reference)",
           checks.rows_match(wrong, ref["features"], checks.REFERENCE_ATOL, "reference"), True)


def eval_cases(results, workdir):
    import numpy as np

    import workloads

    w = workloads.EvalVeri(0, workdir)
    w.setup()
    report = w.op()
    expect(results, "eval: report consistent", w.check_op(report), False)
    for name, problem in w.verify():
        expect(results, f"eval: {name}", problem, False)
    sub = w.oracle_subsample()
    scored_pos = np.cumsum(~w.skipped) - 1
    target = next(i for i in sub if not w.skipped[i])
    good = list(report.per_query_ap)
    report.per_query_ap[scored_pos[target]] += 0.01
    report.map_score = float(np.mean(report.per_query_ap))
    problems = dict(w.verify())
    expect(results, "eval: one sampled AP altered by 0.01", problems["oracle subsample"], True)
    report.per_query_ap = good
    report.map_score = float(np.mean(good))
    report.skipped_queries += 1
    expect(results, "eval: skipped count altered", dict(w.verify())["report consistent"], True)


def benchmark_json_cases(results):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problem = None if e2e == run.END_TO_END else f"end_to_end {e2e} != run.py {run.END_TO_END}"
    expect(results, "BENCHMARK.json end_to_end matches run.py", problem, False)
    units = run.per_layer_units()
    problem = None if layers == units else f"differs in {sorted(set(layers.items()) ^ set(units.items()))}"
    expect(results, "BENCHMARK.json per_layer matches run.py", problem, False)
    import workloads

    problem = None if {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) else "workload names differ"
    expect(results, "BENCHMARK.json workloads match run.py", problem, False)


def write_reference(workdir):
    import workloads

    losses = workloads.replay_losses(REFERENCE_SEED, REFERENCE_STEPS, workdir)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps({"seed": REFERENCE_SEED, "losses": losses}, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    rows = workloads.ExtractGallery.reference_rows
    features = workloads.reference_features(REFERENCE_SEED, rows, workdir)
    workloads.EXTRACT_REFERENCE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "rows": list(rows), "features": features.tolist()}
    ) + "\n")
    print(f"wrote {workloads.EXTRACT_REFERENCE}")


def main(argv):
    if run.bootstrap() is None:
        return 2
    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if "--write-reference" in argv:
            write_reference(workdir)
            return 0
        results = []
        train_cases(results, workdir)
        extract_cases(results, workdir)
        eval_cases(results, workdir)
        benchmark_json_cases(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} expectations held")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
