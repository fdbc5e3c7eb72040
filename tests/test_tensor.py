"""Autograd engine: forward semantics against oracles, gradients against
central finite differences."""
import gc
import weakref

import numpy as np
import pytest

import lkareid.tensor as T
from lkareid.tensor import Conv2dSpec, NumericsError, Tensor, gradient_check

from oracles import (
    adaptive_pool_grad_oracle,
    adaptive_pool_oracle,
    anti_pool_grad_oracle,
    anti_pool_oracle,
    broadcast_oracle,
    conv1d_oracle,
    conv2d_oracle,
)


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_box_sum():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    spec = Conv2dSpec(1, 1, (3, 3), padding=1, has_bias=False)
    out = T.conv2d(x, w, None, spec).data[0, 0]
    assert out[1, 1] == 9.0
    assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0


def test_conv2d_identity_1x1():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 5, 5))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = T.conv2d(Tensor(x), w, None, Conv2dSpec(1, 1, (1, 1), has_bias=False))
    np.testing.assert_array_equal(out.data, x)


def test_conv2d_grouped_dilated_matches_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 4, 7, 7))
    w = rng.normal(size=(4, 1, 3, 3))
    b = rng.normal(size=4)
    spec = Conv2dSpec(4, 4, (3, 3), padding=2, dilation=2, groups=4)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), spec).data
    want = conv2d_oracle(x, w, b, padding=2, dilation=2, groups=4)
    np.testing.assert_allclose(got, want, atol=1e-12)


# (N, C_in, C_out, H, W, stride, padding, dilation, groups): dense rows, and
# depthwise rows (C_in = C_out = groups) that include a 1x1 output.  The last
# row, one sample of one channel, is dense by its groups.
_ORACLE_CONFIGS = {
    "dense-s1": (2, 4, 6, 8, 9, 1, 0, 1, 1),
    "dense-s2-p1": (2, 4, 6, 8, 9, 2, 1, 1, 1),
    "dense-s2-asym": (2, 4, 6, 8, 9, 2, ((1, 0), (0, 1)), 1, 1),
    "dw-p2-d2": (2, 4, 4, 8, 9, 1, 2, 2, 4),
    "dw-s2-p1": (2, 4, 4, 8, 9, 2, 1, 1, 4),
    "dw-d3-asym": (2, 8, 8, 13, 13, 1, ((1, 2), (1, 2)), 3, 8),
    "dw-1x1-output": (2, 4, 4, 3, 3, 1, 0, 1, 4),
    "one-sample-one-channel": (1, 1, 1, 6, 6, 1, 1, 1, 1),
}


@pytest.mark.parametrize("case", _ORACLE_CONFIGS.values(), ids=_ORACLE_CONFIGS.keys())
def test_conv2d_matches_oracle_configs(case):
    n, cin, cout, h, w, stride, padding, dilation, groups = case
    rng = np.random.default_rng(7)
    x = rng.normal(size=(n, cin, h, w))
    wt = rng.normal(size=(cout, cin // groups, 3, 3))
    b = rng.normal(size=cout)
    spec = Conv2dSpec(cin, cout, (3, 3), stride=stride, padding=padding, dilation=dilation, groups=groups)
    got = T.conv2d(Tensor(x), Tensor(wt), Tensor(b), spec).data
    want = conv2d_oracle(x, wt, b, stride=stride, padding=padding, dilation=dilation, groups=groups)
    np.testing.assert_allclose(got, want, atol=1e-11)


def test_conv2d_linearity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 5, 5))
    y = rng.normal(size=(1, 2, 5, 5))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    spec = Conv2dSpec(2, 3, (3, 3), padding=1, has_bias=False)

    def conv(arr):
        return T.conv2d(Tensor(arr), w, None, spec).data

    np.testing.assert_allclose(conv(2.0 * x + 0.5 * y), 2.0 * conv(x) + 0.5 * conv(y), atol=1e-10)


def test_conv2d_1x1_equals_channel_matmul():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5, 4, 4))
    w = rng.normal(size=(3, 5, 1, 1))
    got = T.conv2d(Tensor(x), Tensor(w), None, Conv2dSpec(5, 3, (1, 1), has_bias=False)).data
    want = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conv2d_shape_errors():
    x = Tensor(np.zeros((1, 3, 5, 5)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    with pytest.raises(ValueError):
        T.conv2d(x, w, None, Conv2dSpec(4, 4, (3, 3)))  # channel mismatch
    with pytest.raises(ValueError):
        Conv2dSpec(3, 4, (3, 3), groups=2)  # non-divisible groups
    with pytest.raises(ValueError):
        Conv2dSpec(4, 6, (3, 3), groups=2)  # grouped, neither dense nor depthwise
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((4, 3, 7, 7))), None, Conv2dSpec(3, 4, (7, 7)))


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_identity():
    x = np.arange(6.0).reshape(1, 2, 3)
    out = T.conv1d(Tensor(x), Tensor(np.array([1.0])), None)
    np.testing.assert_array_equal(out.data, x)


def test_conv1d_hand_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]]))
    w = Tensor(np.array([1.0, 1.0, 1.0]))
    out = T.conv1d(x, w, None)
    np.testing.assert_array_equal(out.data, [[[3.0, 6.0, 9.0, 12.0, 9.0]]])


def test_conv1d_matches_oracle():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 9))
    w = rng.normal(size=5)
    b = rng.normal(size=1)
    got = T.conv1d(Tensor(x), Tensor(w), Tensor(b)).data
    np.testing.assert_allclose(got, conv1d_oracle(x, w, b), atol=1e-12)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ValueError):
        T.conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros(2)), None)


# ---------------------------------------------------------------------------
# pooling


def test_adaptive_pool_quadrants():
    x = Tensor(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
    out = T.adaptive_avg_pool(x, (2, 2)).data[0, 0]
    np.testing.assert_array_equal(out, [[3.5, 5.5], [11.5, 13.5]])


def test_adaptive_pool_identity_and_gap():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 2, 5, 5))
    np.testing.assert_array_equal(T.adaptive_avg_pool(Tensor(x), (5, 5)).data, x)
    c = np.full((1, 1, 4, 6), 3.25)
    assert T.adaptive_avg_pool(Tensor(c), (1, 1)).data.item() == pytest.approx(3.25)


@pytest.mark.parametrize("h,w,oh,ow", [(7, 5, 3, 2), (6, 6, 4, 4), (9, 9, 5, 5), (5, 5, 5, 3)])
def test_adaptive_pool_matches_oracle(h, w, oh, ow):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, h, w))
    got = T.adaptive_avg_pool(Tensor(x), (oh, ow)).data
    np.testing.assert_allclose(got, adaptive_pool_oracle(x, oh, ow), atol=1e-12)


def test_adaptive_pool_divisible_preserves_global_mean():
    # with divisible extents the bins partition the plane exactly
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 1, 8, 8))
    pooled = T.adaptive_avg_pool(Tensor(x), (4, 4)).data
    assert pooled.mean() == pytest.approx(x.mean(), abs=1e-12)


def test_anti_pool_broadcast_and_quadrants():
    v = Tensor(np.array(7.0).reshape(1, 1, 1, 1))
    np.testing.assert_array_equal(T.anti_pool(v, (3, 4)).data, np.full((1, 1, 3, 4), 7.0))
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    out = T.anti_pool(x, (4, 4)).data[0, 0]
    want = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
    np.testing.assert_array_equal(out, want)


def test_anti_pool_round_trip_on_bin_constant_input():
    base = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.kron(base, np.ones((2, 2))).reshape(1, 1, 4, 4)
    pooled = T.adaptive_avg_pool(Tensor(x), (2, 2))
    restored = T.anti_pool(pooled, (4, 4)).data
    np.testing.assert_array_equal(restored, x)


def test_anti_pool_matches_oracle():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 3, 3, 4))
    got = T.anti_pool(Tensor(x), (7, 9)).data
    np.testing.assert_allclose(got, anti_pool_oracle(x, 7, 9), atol=1e-12)


@pytest.mark.parametrize("h,w,oh,ow", [(6, 6, 5, 5), (7, 5, 3, 2), (8, 8, 5, 5)])
def test_pool_and_anti_pool_on_overlapping_and_uneven_grids(h, w, oh, ow):
    # 6 -> 5 bins overlap; 7 -> 3, 5 -> 2 and 8 -> 5 mix bin sizes
    rng = np.random.default_rng(h * w + oh * ow)
    x = rng.normal(size=(2, 3, h, w))
    pooled = T.adaptive_avg_pool(Tensor(x), (oh, ow)).data
    np.testing.assert_allclose(pooled, adaptive_pool_oracle(x, oh, ow), rtol=0, atol=1e-12)
    restored = T.anti_pool(Tensor(pooled), (h, w)).data
    np.testing.assert_allclose(restored, anti_pool_oracle(pooled, h, w), rtol=0, atol=1e-12)

    def f(xt):
        return T.tsum(T.mul(T.anti_pool(T.adaptive_avg_pool(xt, (oh, ow)), (h, w)), xt))

    assert gradient_check(f, [Tensor(x)]) <= 1e-4


# These two guard criterion 7's float32 summation order: at the model's
# shapes the pools and their gradients must add the same numbers in the same
# order as the per-bin loops, so a reordered sum fails here and not through a
# seed-dependent mAP flip.  They go when ROADMAP item 1 stops criterion 7
# from depending on float32 bits.
_MODEL_POOLS = [((16, 64, 6, 6), (5, 5)), ((16, 64, 6, 6), (1, 1)), ((16, 64, 5, 5), (1, 1))]


@pytest.mark.parametrize("shape,out_hw", _MODEL_POOLS)
def test_float32_pool_is_per_bin_numpy_mean_at_model_shapes(shape, out_hw):
    x = np.random.default_rng(15).normal(size=shape).astype(np.float32)
    got = T.adaptive_avg_pool(Tensor(x), out_hw).data
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, adaptive_pool_oracle(x, *out_hw))


@pytest.mark.parametrize("shape,out_hw", _MODEL_POOLS)
def test_float32_pool_gradients_are_per_bin_loops_at_model_shapes(shape, out_hw):
    rng = np.random.default_rng(16)
    n, c, h, w = shape
    x = Tensor(rng.normal(size=shape).astype(np.float32))
    p = Tensor(rng.normal(size=(n, c) + out_hw).astype(np.float32))
    gp = rng.normal(size=p.shape).astype(np.float32)
    gu = rng.normal(size=shape).astype(np.float32)
    x.requires_grad = p.requires_grad = True
    T.backward(T.tsum(T.mul(T.adaptive_avg_pool(x, out_hw), Tensor(gp))))
    T.backward(T.tsum(T.mul(T.anti_pool(p, (h, w)), Tensor(gu))))
    assert x.grad.dtype == p.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, adaptive_pool_grad_oracle(gp, h, w))
    np.testing.assert_array_equal(p.grad, anti_pool_grad_oracle(gu, *out_hw))


def test_pool_bounds_errors():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    with pytest.raises(ValueError):
        T.adaptive_avg_pool(x, (5, 2))
    with pytest.raises(ValueError):
        T.anti_pool(x, (3, 3))


# ---------------------------------------------------------------------------
# pointwise ops and broadcasting


def test_pointwise_fixed_points():
    assert T.gelu(Tensor(np.array(0.0))).data == 0.0
    assert T.sigmoid(Tensor(np.array(0.0))).data == 0.5
    np.testing.assert_allclose(
        T.l2_normalize(Tensor(np.array([[3.0, 4.0]])), axis=1).data, [[0.6, 0.8]]
    )


def test_l2_normalize_zero_norm_errors():
    with pytest.raises(NumericsError):
        T.l2_normalize(Tensor(np.zeros((1, 4))), axis=1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_forward_rejected():
    big = Tensor(np.array(1e308))
    with pytest.raises(NumericsError):
        T.mul(big, big)


@pytest.mark.parametrize("seed", range(5))
def test_broadcast_add_mul_match_tiling_oracle(seed):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, 5, size=2)
    shapes = []
    target = rng.integers(1, 5, size=max(ranks))
    for rank in ranks:
        tail = target[len(target) - rank :]
        shapes.append(tuple(int(e) if rng.random() < 0.7 else 1 for e in tail))
    a = rng.normal(size=shapes[0])
    b = rng.normal(size=shapes[1])
    np.testing.assert_allclose(
        T.add(Tensor(a), Tensor(b)).data, broadcast_oracle(a, b, np.add), atol=1e-14
    )
    np.testing.assert_allclose(
        T.mul(Tensor(a), Tensor(b)).data, broadcast_oracle(a, b, np.multiply), atol=1e-14
    )


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_and_square():
    x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    T.backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 2)))
    x = Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_backward_accumulates_across_uses():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = T.add(x, x)
    T.backward(T.tsum(y))
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


_SPEC_3X3 = Conv2dSpec(2, 2, (3, 3), padding=1, has_bias=False)
_GRAPH_OPS = {
    "add": lambda x, w: T.add(x, w),
    "gelu": lambda x, w: T.gelu(x),
    "conv2d": lambda x, w: T.conv2d(x, w, None, _SPEC_3X3),
}


@pytest.mark.parametrize("op", sorted(_GRAPH_OPS))
def test_node_links_graph_only_when_an_input_requires_grad(op):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 2, 3, 3)))
    w = Tensor(rng.normal(size=_SPEC_3X3.weight_shape() if op == "conv2d" else x.shape))
    out = _GRAPH_OPS[op](x, w)
    assert out._backward is None and out._prev == () and not out.requires_grad
    x.requires_grad = True
    out = _GRAPH_OPS[op](x, w)
    assert out._backward is not None and x in out._prev and out.requires_grad


@pytest.mark.parametrize("op", sorted(_GRAPH_OPS))
def test_graph_is_freed_without_cycle_collector(op):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=_SPEC_3X3.weight_shape() if op == "conv2d" else x.shape))
    gc.disable()
    try:
        out = _GRAPH_OPS[op](x, w)
        T.backward(T.tsum(out))
        data = weakref.ref(out.data)
        del out
        assert data() is None
    finally:
        gc.enable()


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(T.add(x, x))


def test_gradient_check_linear_map():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    err = gradient_check(lambda p, q: T.tsum(T.matmul(p, q)), [a, b])
    assert err <= 1e-10


_GRADCHECK_SPECS = {
    "dense": Conv2dSpec(4, 3, (3, 3), stride=2, padding=((1, 0), (0, 1))),
    "depthwise": Conv2dSpec(4, 4, (3, 3), padding=((2, 1), (1, 2)), dilation=2, groups=4),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", sorted(_GRADCHECK_SPECS))
def test_gradient_check_conv2d(kind, seed):
    spec = _GRADCHECK_SPECS[kind]
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 4, 5, 5)))
    w = Tensor(rng.normal(size=spec.weight_shape()))
    b = Tensor(rng.normal(size=spec.out_channels))

    def f(xt, wt, bt):
        return T.tsum(T.mul(T.conv2d(xt, wt, bt, spec), T.conv2d(xt, wt, bt, spec)))

    assert gradient_check(f, [x, w, b]) <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_gradient_check_misc_ops(seed):
    rng = np.random.default_rng(100 + seed)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)))
    w = Tensor(rng.normal(size=3))

    def f(xt, wt):
        p = T.adaptive_avg_pool(xt, (2, 2))
        u = T.anti_pool(p, (6, 6))
        s = T.sigmoid(T.gelu(T.mul(u, xt)))
        seq = T.reshape(T.transpose(s, (0, 2, 3, 1)), (2, 36, 3))
        return T.tsum(T.conv1d(seq, wt, None))

    assert gradient_check(f, [x, w]) <= 1e-4


def test_gradient_check_detects_nondeterminism():
    rng = np.random.default_rng(12)
    x = Tensor(np.ones(3))

    def f(xt):
        return T.tsum(T.mul(xt, float(rng.normal())))

    with pytest.raises(ValueError):
        gradient_check(f, [x])
