"""Fingerprint a criterion-7 training run, to show two trees compute the same bits.

    python3 scripts/bit_identity.py --steps 300 --attention on --optimizer sgd

Trains the acceptance suite's criterion-7 run, as ``tests/criterion7.py``
defines it, with the library in this checkout's ``src/``, then prints one
sha256 per artifact:

    records     the per-step loss records, as JSON
    parameters  every parameter's name and float32 bytes, in model order
    checkpoint  the file ``save_checkpoint`` writes
    features    ``extract_features`` rows of the query, then the gallery
    dataset     the ``SynthData`` it trains on: images, labels, cameras
                and views, each array's dtype, shape and bytes
    report      ``evaluate(...).to_json()`` on those query and gallery
                rows, written with each sample's identity and camera as
                two JSON-lines manifests and read back by ``load_manifest``,
                as ``lkareid eval`` reads them

``--optimizer adam`` trains with Adam, at the learning rate that module
gives it, instead of SGD.

BLAS runs on one thread, so the hashes do not depend on how a
multithreaded GEMM splits its sums.  Run it in two checkouts on one
machine: a change that keeps every float32 bit prints the same six lines.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CRITERION7 = ROOT / "tests" / "criterion7.py"


def fingerprint(steps, attention_enabled, optimizer="sgd"):
    """(artifact, sha256 hex) pairs of one criterion-7 run."""
    # imported here, not at the top: numpy loads only after main pins BLAS
    import numpy as np

    from lkareid.evaluation import evaluate, load_manifest
    from lkareid.model import extract_features, save_checkpoint
    from lkareid.training import fit

    spec = importlib.util.spec_from_file_location("lkareid_criterion7", CRITERION7)
    criterion7 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(criterion7)
    data, (train_idx, query_idx, gallery_idx), state, cfg = criterion7.setup(attention_enabled, steps, optimizer)
    records = fit(state, data, cfg, sample_positions=train_idx)

    params = hashlib.sha256()
    for name, p in state.params.items():
        params.update(name.encode("utf-8"))
        params.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    features = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.lkar"
        save_checkpoint(state, path)
        checkpoint = hashlib.sha256(path.read_bytes())
        manifests = []
        for split, idx in (("query", query_idx), ("gallery", gallery_idx)):
            rows = extract_features(state, data.images[idx]).data
            features.update(np.ascontiguousarray(rows, dtype="<f4").tobytes())
            manifest = Path(tmp) / f"{split}.jsonl"
            with open(manifest, "w", encoding="utf-8") as fh:
                for row, i in zip(rows, idx):
                    record = {"feature": row.tolist(), "vehicle_id": int(data.labels[i]), "camera_id": int(data.cameras[i])}
                    fh.write(json.dumps(record) + "\n")
            manifests.append(load_manifest(manifest, split))
    report = evaluate(*manifests).to_json()
    dataset = hashlib.sha256()
    for array in (data.images, data.labels, data.cameras, data.views):
        dataset.update(f"{array.dtype.str} {array.shape}".encode("utf-8"))
        dataset.update(np.ascontiguousarray(array).tobytes())
    return [
        ("records", hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()),
        ("parameters", params.hexdigest()),
        ("checkpoint", checkpoint.hexdigest()),
        ("features", features.hexdigest()),
        ("dataset", dataset.hexdigest()),
        ("report", hashlib.sha256(report.encode("utf-8")).hexdigest()),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=300, help="training steps (default 300)")
    parser.add_argument("--attention", choices=("on", "off"), default="on")
    parser.add_argument("--optimizer", choices=("sgd", "adam"), default="sgd")
    args = parser.parse_args(argv)
    if args.steps < 0:
        parser.error("--steps must be >= 0")

    # BLAS reads its thread count when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    adam = ", adam" if args.optimizer == "adam" else ""
    print(f"criterion-7 config, {args.steps} steps, attention {args.attention}{adam}, 1 BLAS thread")
    for name, digest in fingerprint(args.steps, args.attention == "on", args.optimizer):
        print(f"{name:11s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
