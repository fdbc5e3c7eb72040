"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Verdicts are collected by conftest and echoed as a scorecard in the
terminal summary.
"""
import time

import numpy as np

from lkareid.attention import LkaConfig, count_params_flops, eca_kernel_size
from lkareid.attention import init_params, lka_param_shapes, lka_forward
from lkareid.evaluation import Sample, evaluate_features
from lkareid.model import ModelConfig, build_model, extract_features, load_checkpoint, save_checkpoint
from lkareid.tensor import Tensor
from lkareid.training import fit, pk_sample
from lkareid.verify import run_gradcheck

import criterion7
from conftest import record_verdict
from oracles import conv2d_oracle, retrieval_oracle


def _verdict(number, name, ok):
    record_verdict(number, name, ok)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_gradient_suite():
    start = time.time()
    worst = 0.0
    for seed in range(5):
        results = run_gradcheck("all", seed)
        worst = max(worst, max(results.values()))
    elapsed = time.time() - start
    _verdict(1, "gradient suite", worst <= 1e-4 and elapsed <= 60.0)


def test_criterion_2_decomposition():
    ok = True
    for kernel, dilation in ((21, 3), (13, 3), (7, 2), (5, 2)):
        d = LkaConfig(1, kernel, dilation)
        # unit-impulse support through dw-conv then dilated dw-conv
        size = 2 * d.receptive_field + 7
        x = np.zeros((1, 1, size, size))
        x[0, 0, size // 2, size // 2] = 1.0
        y = conv2d_oracle(
            x, np.ones((1, 1, d.dw_kernel, d.dw_kernel)), None, padding=(d.dw_kernel - 1) // 2
        )
        span = dilation * (d.dd_kernel - 1)
        y = conv2d_oracle(
            y, np.ones((1, 1, d.dd_kernel, d.dd_kernel)), None,
            padding=((span // 2, span - span // 2),) * 2, dilation=dilation,
        )
        rows = np.nonzero(y[0, 0].sum(axis=1))[0]
        support = int(rows[-1] - rows[0] + 1)
        expected = (d.dd_kernel - 1) * dilation + (2 * dilation - 2) + 1
        ok &= support == expected == d.receptive_field
        for channels in (16, 64, 256):
            dc = LkaConfig(channels, kernel, dilation)
            ok &= dc.params_decomposed < dc.params_depthwise_full < dc.params_full_conv
    _verdict(2, "decomposition", ok)


def test_criterion_3_linear_complexity():
    ok = True
    for cfg, (h, w) in (
        (LkaConfig(8, 7, 2), (12, 12)),
        (LkaConfig(16, 21, 3), (24, 24)),
        (LkaConfig(4, 5, 2), (10, 10)),
    ):
        _, base = count_params_flops(cfg, (1, cfg.channels, h, w))
        _, doubled = count_params_flops(cfg, (1, cfg.channels, h, 2 * w))
        ok &= 1.9 <= doubled / base <= 2.1
    _verdict(3, "O(n) complexity", ok)


def test_criterion_4_kernel_size_rule():
    sizes = {c: eca_kernel_size(c) for c in range(2, 4097, 2)}
    vals = [sizes[c] for c in sorted(sizes)]
    ok = all(k % 2 == 1 for k in vals)
    ok &= all(b >= a for a, b in zip(vals, vals[1:]))
    ok &= sizes[512] == 5 and sizes[64] == 5 and sizes[2] == 1
    _verdict(4, "adaptive kernel size", ok)


def test_criterion_5_residual_identity():
    ok = True
    rng = np.random.default_rng(0)
    cfg = LkaConfig(4, 5, 2)
    for trial in range(100):
        params = init_params(lka_param_shapes(cfg), np.random.default_rng(trial), dtype=np.float64)
        params["proj_out.weight"].data[:] = 0.0
        params["proj_out.bias"].data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 4, 9, 9)))
        ok &= np.array_equal(lka_forward(x, params, cfg).data, x.data)
    _verdict(5, "residual identity", ok)


def test_criterion_6_evaluation_oracle():
    # handcrafted fixture: query 0's valid ranking has relevance [1,0,1] -> AP 5/6
    q_feats = np.eye(3)
    q_meta = [(0, 0), (1, 0), (2, 0)]
    g_feats = np.array([
        [0.9, 0.0, 0.0],   # id 0 cam 1: rank 1 for q0
        [0.8, 0.1, 0.0],   # id 1 cam 1: rank 2 for q0 (miss)
        [0.7, 0.0, 0.1],   # id 0 cam 2: rank 3 for q0
        [0.0, 1.0, 0.0],   # id 1 cam 2
        [0.0, 0.0, 1.0],   # id 2 cam 1
        [0.0, 0.5, 0.5],   # id 2 cam 0: junk for q2 (same id+cam)
    ])
    g_meta = [(0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (2, 0)]
    samples = lambda meta: [Sample(v, c) for v, c in meta]
    report = evaluate_features(q_feats, samples(q_meta), g_feats, samples(g_meta), max_rank=6)
    want_map, want_cmc, want_skipped = retrieval_oracle(q_feats, q_meta, g_feats, g_meta, max_rank=6)
    ok = abs(report.per_query_ap[0] - 5.0 / 6.0) <= 1e-12
    ok &= abs(report.map_score - want_map) <= 1e-12
    ok &= np.allclose(report.cmc, want_cmc, atol=1e-12)
    ok &= report.skipped_queries == want_skipped == 0
    ok &= all(b >= a for a, b in zip(report.cmc, report.cmc[1:]))

    # junk-entry invariance under 100 randomized single-query fixtures
    rng = np.random.default_rng(3)
    for _ in range(100):
        qf = rng.normal(size=(1, 4))
        gf = rng.normal(size=(5, 4))
        qm = [(0, 0)]
        gm = [(0, 1), (1, 1), (int(rng.integers(0, 3)), 2), (0, 2), (1, 2)]
        base = evaluate_features(qf, samples(qm), gf, samples(gm), max_rank=5)
        aug_f = np.concatenate([gf, rng.normal(size=(2, 4))])
        aug_m = gm + [(0, 0)] * 2  # appended entries share the query's id+cam -> junk
        aug = evaluate_features(qf, samples(qm), aug_f, samples(aug_m), max_rank=5)
        ok &= abs(base.map_score - aug.map_score) <= 1e-12
        ok &= np.allclose(base.cmc, aug.cmc, atol=1e-12)
    _verdict(6, "evaluation oracle", ok)


def test_criterion_7_toy_end_to_end():
    def run(attention_enabled):
        start = time.time()
        data, (train_idx, query_idx, gallery_idx), state, cfg = criterion7.setup(attention_enabled)
        fit(state, data, cfg, sample_positions=train_idx)
        q_feats = extract_features(state, data.images[query_idx]).data
        g_feats = extract_features(state, data.images[gallery_idx]).data
        q = [Sample(int(data.labels[i]), int(data.cameras[i])) for i in query_idx]
        g = [Sample(int(data.labels[i]), int(data.cameras[i])) for i in gallery_idx]
        report = evaluate_features(q_feats, q, g_feats, g, max_rank=5)
        return report, time.time() - start

    report_on, time_on = run(True)
    report_off, time_off = run(False)
    ok = report_on.rank1 >= 0.90 and report_on.map_score >= 0.70
    ok &= report_off.map_score <= report_on.map_score + 0.02
    ok &= time_on <= 300.0 and time_off <= 300.0
    _verdict(7, "toy end-to-end", ok)


def test_criterion_8_pk_sampling():
    index = {i: list(range(i * 10, i * 10 + 10)) for i in range(12)}
    labels = {s: i for i in index for s in index[i]}
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        batch = pk_sample(index, 6, 8, rng)
        ok &= len(batch) == 48
        got = [labels[s] for s in batch]
        uniq, counts = np.unique(got, return_counts=True)
        ok &= len(uniq) == 6 and all(c == 8 for c in counts)
    _verdict(8, "pk sampling", ok)


def test_criterion_9_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(
        num_identities=8, stem_widths=(4, 8), feature_dim=16, blocks_per_branch=1,
        lka_kernel=5, hca_local_grid=3,
    )
    state = build_model(cfg, 0)
    rng = np.random.default_rng(1)
    images = rng.uniform(0.0, 1.0, (3, 3, 16, 16)).astype(np.float32)
    before = extract_features(state, images).data
    p1, p2 = tmp_path / "a.lkar", tmp_path / "b.lkar"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    after = extract_features(loaded, images).data
    ok = p1.read_bytes() == p2.read_bytes() and np.array_equal(before, after)
    _verdict(9, "checkpoint round trip", ok)
