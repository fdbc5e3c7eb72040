"""Shared test plumbing: the acceptance scorecard, checkpoint surgery and
loading the repository's scripts.

Acceptance tests record one verdict line each; the terminal-summary hook
prints the full scorecard after capture ends so it always shows up in the
run log.
"""
import importlib.util
import json
import struct
from pathlib import Path

VERDICTS = []


def rewrite_config_snapshot(path, edit):
    """Apply edit to the config snapshot dict of the checkpoint at path."""
    blob = path.read_bytes()
    (cfg_len,) = struct.unpack("<I", blob[6:10])
    snapshot = json.loads(blob[10 : 10 + cfg_len])
    edit(snapshot)
    raw = json.dumps(snapshot).encode("utf-8")
    path.write_bytes(blob[:6] + struct.pack("<I", len(raw)) + raw + blob[10 + cfg_len :])


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
