"""Shared test plumbing: the acceptance scorecard, checkpoint surgery and
loading the repository's scripts.

Acceptance tests record one verdict line each; the terminal-summary hook
prints the full scorecard after capture ends so it always shows up in the
run log.
"""
import importlib.util
import json
from pathlib import Path

from lkareid.model import _HEADER

VERDICTS = []


def rewrite_config_snapshot(path, edit):
    """Apply edit to the config snapshot dict of the checkpoint at path."""
    blob = path.read_bytes()
    magic, version, cfg_len = _HEADER.unpack_from(blob)
    end = _HEADER.size + cfg_len
    snapshot = json.loads(blob[_HEADER.size : end])
    edit(snapshot)
    raw = json.dumps(snapshot).encode("utf-8")
    path.write_bytes(_HEADER.pack(magic, version, len(raw)) + raw + blob[end:])


def load_script(name):
    """scripts/<name>.py, loaded by path from the checkout."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"lkareid_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_verdict(number, name, ok):
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}"
    VERDICTS.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
