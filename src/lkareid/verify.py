"""Finite-difference verification drivers for the CLI and the test suite.

All checks run in float64 with central differences at h=1e-5 and report
the max relative error |analytic - numeric| / max(1, |analytic|, |numeric|).
Each check has fixed shapes and sample counts; only the seed varies.
"""
from __future__ import annotations

import functools

import numpy as np

from . import tensor as T
from .attention import (
    HcaConfig,
    LkaConfig,
    hca_forward,
    hca_param_shapes,
    init_params,
    lka_forward,
    lka_param_shapes,
)
from .model import NUM_VIEWS, ModelConfig, build_model, forward_train
from .tensor import Tensor, gradient_check
from .training import batch_hard_triplet_loss, cross_entropy_loss

TOLERANCE = 1e-4


# attention blocks checked: config, side of the (1, C, hw, hw) input,
# parameter shapes and forward
_BLOCKS = {
    "lka": (LkaConfig(8, kernel=5), 12, lka_param_shapes, lka_forward),
    "hca": (HcaConfig(8), 10, hca_param_shapes, hca_forward),
}


def gradcheck_block(block, seed):
    cfg, hw, param_shapes, forward = _BLOCKS[block]
    rng = np.random.default_rng(seed)
    params = init_params(param_shapes(cfg), rng, dtype=np.float64)
    # nonzero biases so their gradients are exercised off the origin
    for name, p in params.items():
        if name.endswith(".bias"):
            p.data += rng.normal(0.0, 0.05, p.shape)
    x = Tensor(rng.normal(0.0, 1.0, (1, cfg.channels, hw, hw)))
    names = list(params)

    def f(xt, *ps):
        return T.tsum(forward(xt, dict(zip(names, ps)), cfg))

    return gradient_check(f, [x, *params.values()], sample=40, rng=rng)


def gradcheck_cross_entropy(seed):
    batch, classes = 6, 5
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(0.0, 2.0, (batch, classes)))
    labels = rng.integers(0, classes, batch)

    def f(z):
        return cross_entropy_loss(z, labels)

    return gradient_check(f, [logits], rng=rng)


def gradcheck_triplet(seed):
    batch, dim = 8, 4
    rng = np.random.default_rng(seed)
    emb = Tensor(rng.normal(0.0, 1.0, (batch, dim)))
    labels = np.repeat(np.arange(batch // 2), 2)

    def f(e):
        return batch_hard_triplet_loss(e, labels)

    return gradient_check(f, [emb], rng=rng)


def tiny_model_config():
    return ModelConfig(
        num_identities=4,
        stem_widths=(4,),
        feature_dim=8,
        blocks_per_branch=1,
        lka_kernel=5,
        lka_dilation=2,
        hca_local_grid=3,
        metadata_embeddings_enabled=True,
    )


def gradcheck_model(seed):
    """End-to-end check through a tiny model: scalar sum of every branch
    output, gradients sampled per parameter tensor."""
    cfg = tiny_model_config()
    state = build_model(cfg, seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    images = Tensor(rng.uniform(0.0, 1.0, (2, 3, 8, 8)))
    cams = rng.integers(0, cfg.num_cameras, 2)
    views = rng.integers(0, NUM_VIEWS, 2)
    # nonzero metadata tables so their gradients are exercised
    for name in ("meta.camera", "meta.view"):
        state.params[name].data += rng.normal(0.0, 0.1, state.params[name].shape)
    names = list(state.params)

    def f(xt, *ps):
        for name, p in zip(names, ps):
            state.params[name] = p
        outputs = forward_train(state, xt, cams, views)
        parts = [T.tsum(t) for out in outputs for t in (out.embedding, out.logits) if t is not None]
        return functools.reduce(T.add, parts)

    return gradient_check(f, [images, *state.params.values()], sample=4, rng=rng)


def run_gradcheck(scope, seed):
    """Worst relative error per checked block for the requested scope."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    results = {}
    for block in _BLOCKS:
        if scope in ("all", block):
            results[block] = gradcheck_block(block, seed)
    if scope in ("all", "losses"):
        results["cross_entropy"] = gradcheck_cross_entropy(seed)
        results["triplet"] = gradcheck_triplet(seed)
    if scope in ("all", "model"):
        results["model"] = gradcheck_model(seed)
    if not results:
        raise ValueError(f"unknown gradcheck scope {scope!r}")
    return results
