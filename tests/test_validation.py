"""Argument checks of the library's public functions: each bad input
raises ValueError with a message that names the problem."""
import re

import numpy as np
import pytest

from lkareid import tensor as T
from lkareid.attention import HcaConfig, LkaConfig, count_params_flops, hca_forward
from lkareid.evaluation import Manifest, Sample, evaluate_features
from lkareid.model import ModelConfig, build_model, extract_features, forward_train, model_params_flops
from lkareid.tensor import Conv2dSpec, Tensor
from lkareid.training import batch_hard_triplet_loss, cross_entropy_loss
from lkareid.verify import run_gradcheck


def _ones(*shape):
    return Tensor(np.ones(shape), requires_grad=True)


def _conv(x_shape, weight_shape=(2, 1, 3, 3), bias_shape=(2,)):
    spec = Conv2dSpec(1, 2, (3, 3), padding=1)
    return T.conv2d(_ones(*x_shape), _ones(*weight_shape), _ones(*bias_shape), spec)


def _tiny_state(**overrides):
    return build_model(ModelConfig(num_identities=4, stem_widths=(4,), feature_dim=8, hca_local_grid=2, **overrides), 0)


def _forward_train(camera_ids, view_ids, metadata=False):
    """forward_train on two images of the tiny model (4 cameras)."""
    state = _tiny_state(metadata_embeddings_enabled=metadata)
    return forward_train(state, np.zeros((2, 3, 16, 16), np.float32), camera_ids, view_ids)


def _evaluate(max_rank):
    feats = np.eye(2)
    return evaluate_features(feats, [Sample(0, 0), Sample(1, 0)], feats, [Sample(0, 1), Sample(1, 1)], max_rank)


# "group/check": (call, message fragment); every call raises ValueError
CASES = {
    "tensor/spec-kernel": (lambda: Conv2dSpec(1, 1, (0, 3)), "kernel extents must be >= 1"),
    "tensor/spec-stride": (lambda: Conv2dSpec(1, 1, (3, 3), stride=0), "stride must be >= 1"),
    "tensor/spec-dilation": (lambda: Conv2dSpec(1, 1, (3, 3), dilation=(1, 0)), "dilation must be >= 1"),
    "tensor/spec-padding-int": (lambda: Conv2dSpec(2, 2, (3, 3), padding=-1), "padding must be >= 0"),
    "tensor/spec-padding-pair": (lambda: Conv2dSpec(2, 2, (3, 3), padding=(1, -1)), "padding must be >= 0"),
    "tensor/spec-padding-sides": (
        lambda: Conv2dSpec(2, 2, (3, 3), padding=((0, 0), (-2, 1))), "padding must be >= 0, got ((0, 0), (-2, 1))",
    ),
    "tensor/spec-out-size": (lambda: Conv2dSpec(1, 1, (5, 5)).out_size(3, 3), "conv output extent < 1"),
    "tensor/backward-no-grad": (lambda: T.backward(Tensor(np.ones(()))), "does not depend on any requires_grad"),
    "tensor/matmul-1d": (lambda: T.matmul(_ones(3), _ones(3, 2)), "matmul expects 2-d tensors"),
    "tensor/matmul-shapes": (lambda: T.matmul(_ones(2, 3), _ones(2, 3)), "matmul shape mismatch"),
    "tensor/gather-float": (lambda: T.gather_rows(_ones(3, 2), np.array([0.0])), "1-d integer array"),
    "tensor/gather-2d": (lambda: T.gather_rows(_ones(3, 2), np.zeros((1, 1), dtype=int)), "1-d integer array"),
    "tensor/gather-high": (lambda: T.gather_rows(_ones(3, 2), np.array([3])), "index out of range"),
    "tensor/gather-negative": (lambda: T.gather_rows(_ones(3, 2), np.array([-1])), "index out of range"),
    "tensor/conv2d-3d": (lambda: _conv((1, 4, 4)), "conv2d expects NCHW input"),
    "tensor/conv2d-weight": (lambda: _conv((1, 1, 4, 4), weight_shape=(2, 1, 3, 2)), "weight shape"),
    "tensor/conv2d-bias": (lambda: _conv((1, 1, 4, 4), bias_shape=(3,)), "bias shape"),
    "tensor/conv1d-2d": (lambda: T.conv1d(_ones(2, 5), _ones(3), _ones()), "conv1d expects (B, C_seq, L) input"),
    "tensor/conv1d-weight": (lambda: T.conv1d(_ones(1, 2, 5), _ones(1, 3), _ones()), "conv1d weight must be 1-d"),
    "tensor/pool-3d": (lambda: T.adaptive_avg_pool(_ones(1, 4, 4), (1, 1)), "adaptive_avg_pool expects NCHW"),
    "tensor/anti-pool-3d": (lambda: T.anti_pool(_ones(1, 2, 2), (4, 4)), "anti_pool expects NCHW"),
    "tensor/gradcheck-float32": (
        lambda: T.gradient_check(T.tsum, [Tensor(np.ones(2, dtype=np.float32))]),
        "gradient_check requires float64 inputs",
    ),
    "attention/hca-forward": (
        lambda: hca_forward(_ones(1, 4, 6, 6), {}, HcaConfig(8)), "input has 4 channels, config wants 8",
    ),
    "attention/lka-channels": (lambda: LkaConfig(0), "channels must be >= 1"),
    "attention/hca-channels": (lambda: HcaConfig(0), "channels must be >= 1"),
    "attention/lka-cost": (lambda: count_params_flops(LkaConfig(8), (1, 4, 8, 8)), "input_shape channels do not"),
    "attention/hca-cost": (lambda: count_params_flops(HcaConfig(8), (1, 4, 8, 8)), "input_shape channels do not"),
    "losses/ce-logits-1d": (lambda: cross_entropy_loss(_ones(3), np.zeros(3, dtype=int)), "logits must be (B, N)"),
    "losses/ce-labels": (lambda: cross_entropy_loss(_ones(3, 2), np.zeros(2, dtype=int)), "labels must be (B,)"),
    "losses/triplet-1d": (
        lambda: batch_hard_triplet_loss(_ones(4), np.array([0, 0, 1, 1])), "embeddings must be (B, D)",
    ),
    "losses/triplet-labels": (lambda: batch_hard_triplet_loss(_ones(4, 2), np.array([0, 1])), "labels must be (B,)"),
    "model/feature-dim": (lambda: ModelConfig(4, feature_dim=0), "feature_dim must be >= 1, got 0"),
    "model/blocks-per-branch": (lambda: ModelConfig(4, blocks_per_branch=0), "blocks_per_branch must be >= 1, got 0"),
    "model/images-one-channel": (
        lambda: extract_features(_tiny_state(), np.zeros((1, 1, 16, 16), np.float32)), "images must be (B, 3, H, W)",
    ),
    "model/view-id": (lambda: _forward_train([0, 0], [0, 2]), "view id out of range"),
    "model/cost-channels": (
        lambda: model_params_flops(_tiny_state().config, (1, 1, 16, 16)), "model input must have 3 channels",
    ),
    "evaluation/manifest-split": (lambda: Manifest("probe", [Sample(0, 0)]), "unknown split 'probe'"),
    "evaluation/manifest-empty": (lambda: Manifest("query", []), "manifest must not be empty"),
    "verify/gradcheck-scope": (lambda: run_gradcheck("nope", 0), "unknown gradcheck scope 'nope'"),
}
# ids that are checked whether or not the metadata tables read them
for meta, metadata in (("off", False), ("on", True)):
    for label, bad in (("negative", [-1, 0]), ("float", [0.5, 1]), ("2d", [[0], [1]]), ("one-for-two", [0])):
        CASES[f"model/camera-ids-{label}-metadata-{meta}"] = (
            lambda bad=bad, metadata=metadata: _forward_train(bad, [0, 0], metadata), "camera_ids",
        )
        CASES[f"model/view-ids-{label}-metadata-{meta}"] = (
            lambda bad=bad, metadata=metadata: _forward_train([0, 0], bad, metadata), "view_ids",
        )
for label, bad in (("float", 2.5), ("str", "3"), ("none", None), ("bool", True)):
    CASES[f"evaluation/max-rank-{label}"] = (lambda bad=bad: _evaluate(bad), "max_rank must be >= 1")


@pytest.mark.parametrize("case", CASES)
def test_bad_argument_raises_value_error_naming_it(case):
    call, fragment = CASES[case]
    with pytest.raises(ValueError, match=re.escape(fragment)):
        call()


def test_max_rank_may_be_a_numpy_integer():
    report = _evaluate(np.int64(1))
    assert report.protocol["max_rank"] == 1 and type(report.protocol["max_rank"]) is int
