"""scripts/bit_identity.py, loaded by path from the checkout, fingerprints
a criterion-7 run: six named sha256 digests that repeat from run to run."""
import re

from conftest import load_script


def test_fingerprint_names_six_artifacts_and_repeats():
    fingerprint = load_script("bit_identity").fingerprint
    first = fingerprint(2, True)
    assert [name for name, _ in first] == ["records", "parameters", "checkpoint", "features", "dataset", "report"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for _, digest in first)
    assert fingerprint(2, True) == first
