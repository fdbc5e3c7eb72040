"""The three workloads.  Each builds its inputs from the seed in
``setup``, runs one closed-loop operation per ``op`` call, checks each
output cheaply in ``check_op`` and thoroughly in ``verify``.

Library functions are always called through their module
(``training.train_step``, not a local name) so the tracer's wrappers
are the ones that run.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from lkareid import attention, evaluation, model, training

import checks

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "train_toy.json"
EXTRACT_REFERENCE = HERE / "reference" / "extract_gallery.json"
ORACLES = HERE.parent / "tests" / "oracles.py"
IMAGE_SIZE = 48


def load_oracles():
    """The repository's loop oracles, loaded by path from the checkout."""
    spec = importlib.util.spec_from_file_location("lkareid_test_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    """Defaults for what a workload does not need."""

    conv_batch = 16  # batch of the trunk-conv GEMM ceiling probe

    def op_counters(self, _out):
        return {}

    def forward_flops(self):
        return 0

    def finish(self):
        pass


class TrainToy(Workload):
    """Criterion-7 training: 16 synthetic identities, 48x48, P=4 K=4,
    attention on, SGD lr 0.03, then one checkpoint save as ``cmd_train``."""

    name = "train-toy"
    items_per_op = 16  # images per step
    setups = 25  # each ~40 ms of Python; spread over the run, one a second
    replay_steps = 6
    aliases = {  # the operation statistics under this workload's names
        "train_step_ms_p50": ("p50", 1e3, "ms"),
        "train_step_ms_p90": ("p90", 1e3, "ms"),
        "train_images_per_s": ("rate", 1.0, "1/s"),
    }

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.losses = []

    def setup(self):
        spec = training.SyntheticDatasetSpec(
            num_identities=16, images_per_identity=8, num_cameras=4, image_size=IMAGE_SIZE, seed=self.seed
        )
        self.data = training.synth_generate(spec)
        train_idx, _, _ = training.split_query_gallery(self.data, spec)
        self.index = {}
        for pos in train_idx:
            self.index.setdefault(int(self.data.labels[pos]), []).append(int(pos))
        self.model_cfg = model.ModelConfig(num_identities=16, attention_enabled=True)
        self.state = model.build_model(self.model_cfg, self.seed)
        self.cfg = training.TrainConfig(
            identities_per_batch=4, instances_per_identity=4, lr=0.03, seed=self.seed
        )
        self.rng = np.random.default_rng(self.cfg.seed)
        self.opt = training.Optimizer(self.state.params, self.cfg)

    def op(self):
        picks = training.pk_sample(
            self.index, self.cfg.identities_per_batch, self.cfg.instances_per_identity, self.rng
        )
        batch = (self.data.images[picks], self.data.labels[picks], self.data.cameras[picks], self.data.views[picks])
        _, components = training.train_step(self.state, batch, self.cfg, self.opt)
        return components

    def check_op(self, components):
        self.losses.append(components)
        return checks.losses_finite(components)

    def forward_flops(self):
        return attention.count_params_flops(self.model_cfg, (self.items_per_op, 3, IMAGE_SIZE, IMAGE_SIZE))[1]

    def finish(self):
        self.checkpoint = self.workdir / "checkpoint.lkar"
        model.save_checkpoint(self.state, self.checkpoint)

    def verify(self):
        loaded = model.load_checkpoint(self.checkpoint)
        same = list(loaded.params) == list(self.state.params) and all(
            np.array_equal(loaded.params[k].data, self.state.params[k].data) for k in loaded.params
        )
        results = [("checkpoint round trip", None if same else "reloaded parameters differ")]
        replay = replay_losses(self.seed, self.replay_steps, self.workdir)
        results.append(("trajectory replay", checks.trajectory_matches(
            self.losses, replay, checks.REPLAY_RTOL, f"seed {self.seed} replay")))
        ref = json.loads(REFERENCE.read_text())
        ref_losses = replay_losses(ref["seed"], len(ref["losses"]), self.workdir)
        results.append(("stored reference", checks.trajectory_matches(
            ref_losses, ref["losses"], checks.REFERENCE_RTOL, f"seed {ref['seed']} reference")))
        return results


def replay_losses(seed, steps, workdir):
    """The first ``steps`` loss records of a fresh train-toy run."""
    w = TrainToy(seed, workdir)
    w.setup()
    return [w.op() for _ in range(steps)]


class ExtractGallery(Workload):
    """``extract_features`` over a synthetic 48x48 gallery in batches of
    32, the batch ``lkareid eval --checkpoint`` uses, with the model from
    ``load_checkpoint``."""

    name = "extract-gallery"
    items_per_op = conv_batch = 32  # images per batch
    setups = 15
    gallery = 512
    single_checks = 4
    reference_rows = (0, 9, 22, 31)  # of the first batch, stored for seed 0
    aliases = {
        "extract_batch_ms_p50": ("p50", 1e3, "ms"),
        "extract_batch_ms_p90": ("p90", 1e3, "ms"),
        "extract_images_per_s": ("rate", 1.0, "1/s"),
    }

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self):
        spec = training.SyntheticDatasetSpec(
            num_identities=self.gallery // 8, images_per_identity=8, num_cameras=4,
            image_size=IMAGE_SIZE, seed=self.seed,
        )
        self.images = training.synth_generate(spec).images
        self.model_cfg = model.ModelConfig(num_identities=16)
        path = self.workdir / "gallery-model.lkar"
        model.save_checkpoint(model.build_model(self.model_cfg, self.seed), path)
        self.state = model.load_checkpoint(path)
        self.rows = np.full((len(self.images), 4 * self.model_cfg.feature_dim), np.nan, dtype=np.float32)
        self.next = 0

    def op(self):
        start = self.next
        feats = model.extract_features(self.state, self.images[start : start + self.items_per_op]).data
        return start, feats

    def check_op(self, out):
        start, feats = out
        self.rows[start : start + len(feats)] = feats
        self.next = (start + self.items_per_op) % len(self.images)
        return checks.rows_unit_norm(feats)

    def forward_flops(self):
        return attention.count_params_flops(self.model_cfg, (self.items_per_op, 3, IMAGE_SIZE, IMAGE_SIZE))[1]

    def verify(self):
        done = np.nonzero(np.all(np.isfinite(self.rows), axis=1))[0]
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(done, size=min(self.single_checks, len(done)), replace=False)
        single = np.concatenate(
            [model.extract_features(self.state, self.images[i : i + 1]).data for i in picks]
        )
        # images 1..batch: each sits one place earlier than when measured,
        # so an error tied to a position in the batch shows on every row
        shifted = slice(1, 1 + self.items_per_op)
        moved = model.extract_features(self.state, self.images[shifted]).data
        ref = json.loads(EXTRACT_REFERENCE.read_text())
        ref_rows = reference_features(ref["seed"], ref["rows"], self.workdir)
        return [
            ("rows unit norm", checks.rows_unit_norm(self.rows[done])),
            ("single vs batched",
             checks.rows_match(single, self.rows[picks], checks.REEXTRACT_ATOL, "one-at-a-time")),
            ("shifted batch",
             checks.rows_match(moved, self.rows[shifted], checks.REEXTRACT_ATOL, "shifted-batch")),
            ("stored reference", checks.rows_match(
                ref_rows, ref["features"], checks.REFERENCE_ATOL, f"seed {ref['seed']} reference")),
        ]


def reference_features(seed, rows, workdir):
    """The given rows of the first batch of a fresh extract-gallery run."""
    w = ExtractGallery(seed, workdir)
    w.setup()
    return w.op()[1][list(rows)]


class EvalVeri(Workload):
    """VeRi-776 test scale: 1678 queries x 11579 gallery, 200 identities
    over 20 cameras, 512-d features, through JSON-lines manifests and
    ``load_manifest`` -> ``evaluate`` as ``cmd_eval`` runs them."""

    name = "eval-veri"
    setups = 5
    identities = 200
    cameras = 20
    queries = 1678
    gallery = 11579
    dim = 512
    single_camera_ids = 4  # their queries have no cross-camera positive
    oracle_sample = 14
    aliases = {
        "eval_s": ("p50", 1.0, "s"),
        "eval_s_p90": ("p90", 1.0, "s"),
        "eval_queries_per_s": ("rate", 1.0, "1/s"),
    }

    items_per_op = queries

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.first_map = None

    def _make(self, rng):
        nid, ncam = self.identities, self.cameras
        centers = rng.normal(size=(nid, self.dim))
        cam_shift = rng.normal(size=(ncam, self.dim))
        # identity i is seen by cameras cam_order[i, :n_cams[i]]
        cam_order = np.argsort(rng.random((nid, ncam)), axis=1)
        n_cams = rng.integers(3, 9, size=nid)
        n_cams[rng.choice(nid, size=self.single_camera_ids, replace=False)] = 1

        def split(n):
            ids = rng.permutation(np.arange(n) % nid)
            cams = cam_order[ids, rng.integers(0, n_cams[ids])]
            f = centers[ids] + 0.8 * cam_shift[cams] + 2.2 * rng.normal(size=(n, self.dim))
            f /= np.linalg.norm(f, axis=1, keepdims=True)
            return ids, cams, np.rint(f * 1e5).astype(np.int64)

        return split(self.queries), split(self.gallery)

    @staticmethod
    def _write(path, ids, cams, ticks):
        """Manifest lines with each feature value printed to 5 decimals.

        Values are unit-norm row entries in steps of 1e-5, so each is
        looked up in a table of all 200001 strings instead of formatted."""
        table = np.array(["%.5f" % (i / 1e5) for i in range(-100000, 100001)], dtype=object)
        with open(path, "w", encoding="utf-8") as fh:
            for vid, cam, row in zip(ids.tolist(), cams.tolist(), ticks + 100000):
                feature = ", ".join(table[row].tolist())
                fh.write(f'{{"feature": [{feature}], "vehicle_id": {vid}, "camera_id": {cam}}}\n')

    def setup(self):
        rng = np.random.default_rng(self.seed)
        (self.q_ids, self.q_cams, q_ticks), (self.g_ids, self.g_cams, g_ticks) = self._make(rng)
        self.q_path = self.workdir / "query.jsonl"
        self.g_path = self.workdir / "gallery.jsonl"
        self._write(self.q_path, self.q_ids, self.q_cams, q_ticks)
        self._write(self.g_path, self.g_ids, self.g_cams, g_ticks)
        gallery_cams = {}
        for vid, cam in zip(self.g_ids.tolist(), self.g_cams.tolist()):
            gallery_cams.setdefault(vid, set()).add(cam)
        self.skipped = np.array(
            [not (gallery_cams.get(v, set()) - {c}) for v, c in zip(self.q_ids.tolist(), self.q_cams.tolist())]
        )

    def expected_features(self):
        """The doubles a correct parser must produce from the written
        decimals, made again from the seed rather than held through the
        measured loop."""
        (_, _, q_ticks), (_, _, g_ticks) = self._make(np.random.default_rng(self.seed))
        return q_ticks / 1e5, g_ticks / 1e5

    def op(self):
        query = evaluation.load_manifest(self.q_path, split="query")
        gallery = evaluation.load_manifest(self.g_path, split="gallery")
        return evaluation.evaluate(query, gallery, max_rank=10)

    def check_op(self, report):
        self.report = report
        if self.first_map is None:
            self.first_map = report.map_score
        elif report.map_score != self.first_map:
            return f"mAP {report.map_score!r} differs from the first pass {self.first_map!r}"
        return checks.report_consistent(report, int(self.skipped.sum()))

    def op_counters(self, report):
        return {
            "evaluation.queries_scored": len(report.per_query_ap),
            "evaluation.queries_skipped": report.skipped_queries,
        }

    def oracle_subsample(self):
        """Query indices for the oracle: mostly scored, two skipped."""
        rng = np.random.default_rng([self.seed, 2])
        scored = np.nonzero(~self.skipped)[0]
        skipped = np.nonzero(self.skipped)[0]
        picks = list(rng.choice(scored, size=self.oracle_sample - 2, replace=False))
        picks += list(rng.choice(skipped, size=min(2, len(skipped)), replace=False))
        return np.sort(np.array(picks))

    def verify(self):
        report = self.report
        query = evaluation.load_manifest(self.q_path, split="query")
        gallery = evaluation.load_manifest(self.g_path, split="gallery")
        q_feats, g_feats = self.expected_features()
        sub = self.oracle_subsample()
        oracle = load_oracles().retrieval_oracle(
            q_feats[sub], list(zip(self.q_ids[sub], self.q_cams[sub])),
            g_feats, list(zip(self.g_ids, self.g_cams)), max_rank=10,
        )
        library_sub = evaluation.evaluate_features(
            query.features()[sub], [query.samples[i] for i in sub],
            gallery.features(), gallery.samples, max_rank=10,
        )
        # per_query_ap lists scored queries in query order
        scored_pos = np.cumsum(~self.skipped) - 1
        measured_sub_ap = [report.per_query_ap[scored_pos[i]] for i in sub if not self.skipped[i]]
        parsed = np.array_equal(query.features(), q_feats) and np.array_equal(gallery.features(), g_feats)
        return [
            ("manifests parsed", None if parsed else "loaded features differ from the written ones"),
            ("report consistent", checks.report_consistent(report, int(self.skipped.sum()))),
            ("oracle subsample", checks.retrieval_matches_oracle(measured_sub_ap, library_sub, oracle)),
        ]


WORKLOADS = {w.name: w for w in (TrainToy, ExtractGallery, EvalVeri)}
