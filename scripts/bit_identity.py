"""Fingerprint a criterion-7 training run, to show two trees compute the same bits.

    python3 scripts/bit_identity.py --steps 300 --attention on

Trains the acceptance suite's criterion-7 configuration (16 synthetic
identities, 48x48 images, P = K = 4, SGD at lr 0.03, seed 0) with the
library in this checkout's ``src/``, then prints one sha256 per artifact:

    records     the per-step loss records, as JSON
    parameters  every parameter's name and float32 bytes, in model order
    checkpoint  the file ``save_checkpoint`` writes
    features    ``extract_features`` rows of the query, then the gallery

BLAS runs on one thread, so the hashes do not depend on how a
multithreaded GEMM splits its sums.  Run it in two checkouts on one
machine: a change that keeps every float32 bit prints the same four lines.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fingerprint(steps, attention_enabled):
    """(artifact, sha256 hex) pairs of one criterion-7 run."""
    import numpy as np

    from lkareid.model import ModelConfig, build_model, extract_features, save_checkpoint
    from lkareid.training import SyntheticDatasetSpec, TrainConfig, fit, split_query_gallery, synth_generate

    spec = SyntheticDatasetSpec(num_identities=16, images_per_identity=8, num_cameras=4, seed=0)
    data = synth_generate(spec)
    train_idx, query_idx, gallery_idx = split_query_gallery(data, spec)
    state = build_model(ModelConfig(num_identities=16, attention_enabled=attention_enabled), 0)
    cfg = TrainConfig(identities_per_batch=4, instances_per_identity=4, steps=steps, lr=0.03, seed=0)
    records = fit(state, data, cfg, sample_positions=train_idx)

    params = hashlib.sha256()
    for name, p in state.params.items():
        params.update(name.encode("utf-8"))
        params.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.lkar"
        save_checkpoint(state, path)
        checkpoint = hashlib.sha256(path.read_bytes())
    features = hashlib.sha256()
    for idx in (query_idx, gallery_idx):
        rows = extract_features(state, data.images[idx]).data
        features.update(np.ascontiguousarray(rows, dtype="<f4").tobytes())
    return [
        ("records", hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()),
        ("parameters", params.hexdigest()),
        ("checkpoint", checkpoint.hexdigest()),
        ("features", features.hexdigest()),
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=300, help="training steps (default 300)")
    parser.add_argument("--attention", choices=("on", "off"), default="on")
    args = parser.parse_args(argv)
    if args.steps < 0:
        parser.error("--steps must be >= 0")

    # BLAS reads its thread count when numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    print(f"criterion-7 config, {args.steps} steps, attention {args.attention}, 1 BLAS thread")
    for name, digest in fingerprint(args.steps, args.attention == "on"):
        print(f"{name:11s} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
