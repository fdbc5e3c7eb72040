"""Autograd engine: forward semantics against oracles, gradients against
central finite differences."""
import gc
import math
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


# (stride, padding, dilation, input extent) of 3 x 3 convs with taps that
# read padding at every output
_PADDING_ONLY_TAPS = {
    # only tap (2, 2) reads the 2 x 2 input, and only at output (1, 1)
    "stride-4": (4, 6, 1, 2),
    # tap row and column 0 lie above and left of the input at all 5 x 5 outputs
    "dilated-asym": (1, ((6, 2), (6, 2)), 3, 3),
}


@pytest.mark.parametrize("groups", [1, 4], ids=["dense", "depthwise"])
@pytest.mark.parametrize("geometry", _PADDING_ONLY_TAPS.values(), ids=_PADDING_ONLY_TAPS.keys())
def test_conv2d_taps_that_read_only_padding(geometry, groups):
    stride, padding, dilation, extent = geometry
    rng = np.random.default_rng(21)
    spec = Conv2dSpec(4, 4, (3, 3), stride=stride, padding=padding, dilation=dilation, groups=groups)
    x, w, b = rng.normal(size=(2, 4, extent, extent)), rng.normal(size=spec.weight_shape()), rng.normal(size=4)
    got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), spec).data
    want = conv2d_oracle(x, w, b, stride=stride, padding=padding, dilation=dilation, groups=groups)
    np.testing.assert_allclose(got, want, atol=1e-12)
    g = Tensor(rng.normal(size=got.shape))

    def f(*ts):
        return T.tsum(T.mul(T.conv2d(*ts, spec), g))

    assert gradient_check(f, [Tensor(x), Tensor(w), Tensor(b)]) <= 1e-4


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
# memory layout: NCHW shapes over channels-last memory


def _channels_last(x):
    """An NCHW view of a C-contiguous (H, W, N, C) copy of x."""
    return np.ascontiguousarray(x.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)


def _is_channels_last(a):
    return a.transpose(2, 3, 0, 1).flags.c_contiguous


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# the model's conv kinds at a reduced width
_LAYOUT_CONVS = {
    "stem-3x3-s2": Conv2dSpec(3, 8, (3, 3), stride=2, padding=1),
    "trunk-3x3": Conv2dSpec(8, 8, (3, 3), padding=1),
    "pw-1x1": Conv2dSpec(8, 8, (1, 1)),
    "lka-dw": Conv2dSpec(8, 8, (3, 3), padding=1, groups=8),
    "lka-dd-asym": Conv2dSpec(8, 8, (4, 4), padding=((4, 5), (4, 5)), dilation=3, groups=8),
    "dw-1x1-unpadded": Conv2dSpec(8, 8, (1, 1), groups=8),
}


@pytest.mark.parametrize("spec", _LAYOUT_CONVS.values(), ids=_LAYOUT_CONVS.keys())
def test_conv2d_bits_do_not_depend_on_input_layout(spec):
    """Outputs and x, weight and bias gradients are byte-equal for every
    combination of NCHW or channels-last input and output gradient."""
    rng = np.random.default_rng(17)
    x = rng.normal(size=(4, spec.in_channels, 12, 12)).astype(np.float32)
    w = rng.normal(size=spec.weight_shape()).astype(np.float32)
    b = rng.normal(size=spec.out_channels).astype(np.float32)
    g = rng.normal(size=(4, spec.out_channels) + spec.out_size(12, 12)).astype(np.float32)

    def run(arr, grad):
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (arr, w, b))
        out = T.conv2d(xt, wt, bt, spec)
        # `backward` hands a node its gradient in the node's own layout, so
        # call the closure directly to give it `grad` as laid out here
        out._backward(grad)
        assert _is_channels_last(out.data)
        return out.data, xt.grad, wt.grad, bt.grad

    want = run(x, g)
    for arr, grad in [(x, _channels_last(g)), (_channels_last(x), g), (_channels_last(x), _channels_last(g))]:
        for got, ref in zip(run(arr, grad), want):
            _assert_same_bits(got, ref)
    # the bias gradient adds the output gradient in NCHW memory order
    _assert_same_bits(want[3], g.sum(axis=(0, 2, 3)))


def test_conv2d_1x1_columns_are_a_view_of_a_channels_last_input():
    spec = _LAYOUT_CONVS["pw-1x1"]
    x = _channels_last(np.random.default_rng(18).normal(size=(2, 8, 5, 5)).astype(np.float32))
    assert np.shares_memory(T._tap_columns(T._pad_channels_last(x, spec), spec, 5, 5), x)


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


@pytest.mark.parametrize("shape,out_hw", _MODEL_POOLS)
def test_pool_bits_do_not_depend_on_input_layout(shape, out_hw):
    rng = np.random.default_rng(19)
    x = rng.normal(size=shape).astype(np.float32)
    g = rng.normal(size=shape[:2] + out_hw).astype(np.float32)

    def run(arr):
        xt = Tensor(arr, requires_grad=True)
        out = T.adaptive_avg_pool(xt, out_hw)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        return out.data, xt.grad

    for got, want in zip(run(_channels_last(x)), run(x)):
        _assert_same_bits(got, want)


def test_anti_pool_bits_do_not_depend_on_input_layout():
    rng = np.random.default_rng(20)
    p = rng.normal(size=(16, 64, 5, 5)).astype(np.float32)
    g = rng.normal(size=(16, 64, 6, 6)).astype(np.float32)

    def run(arr):
        pt = Tensor(arr, requires_grad=True)
        out = T.anti_pool(pt, (6, 6))
        T.backward(T.tsum(T.mul(out, Tensor(g))))
        assert _is_channels_last(out.data)
        return out.data, pt.grad

    for got, want in zip(run(_channels_last(p)), run(p)):
        _assert_same_bits(got, want)


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


def _gelu_inputs(dtype):
    """+-0, the smallest and largest subnormals, x / sqrt 2 from 2 ulp below
    to 2 ulp above 1 and 8, and large values, each with both signs."""
    info = np.finfo(dtype)
    values = [0.0, info.smallest_subnormal, info.smallest_normal - info.smallest_subnormal]
    for z in (1.0, 8.0):
        x = dtype(z * math.sqrt(2.0))
        near = [x]
        for _ in range(2):
            near = [np.nextafter(near[0], dtype(0))] + near + [np.nextafter(near[-1], dtype(np.inf))]
        zs = np.array(near, dtype=dtype) / math.sqrt(2.0)
        assert zs.min() < z < zs.max()
        values += near
    values += [30.0, 1e4, np.sqrt(info.max), info.max]
    values = np.array(values, dtype=dtype)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bits_match_erf_of_signed_input(dtype):
    from scipy.special import erf

    x = _gelu_inputs(dtype)
    g = np.linspace(-2.0, 2.0, x.size).astype(dtype)
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    with np.errstate(over="ignore"):  # x * x of the largest inputs
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        want_grad = g * (cdf + x * pdf)
        xt = Tensor(x, requires_grad=True)
        out = T.gelu(xt)
        T.backward(T.tsum(T.mul(out, Tensor(g))))
    assert out.data.dtype == xt.grad.dtype == dtype
    assert out.data.tobytes() == (x * cdf).tobytes()
    assert xt.grad.tobytes() == want_grad.tobytes()
    for v in (x[1], -x[1], x[0], -x[0]):  # 0-d input
        scalar = T.gelu(Tensor(np.array(v))).data
        assert scalar.shape == () and scalar.tobytes() == (v * (0.5 * (1.0 + erf(v / math.sqrt(2.0))))).tobytes()


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


def test_second_backward_of_a_loss_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    with pytest.raises(ValueError, match="consumed"):
        T.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_through_a_consumed_shared_subgraph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, -1.0]), requires_grad=True)
    shared = T.mul(x, x)
    first, second = T.tsum(shared), T.tsum(T.mul(shared, w))
    T.backward(first)
    with pytest.raises(ValueError, match="consumed"):
        T.backward(second)
    # nothing changed: not the leaves, not the second loss's own nodes
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert w.grad is None
    assert second._backward is not None and second.grad is None


def test_backward_frees_intermediate_gradients_and_closures():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=_SPEC_3X3.weight_shape()), requires_grad=True)
    conv = T.conv2d(x, w, None, _SPEC_3X3)
    act = T.gelu(conv)
    loss = T.tsum(act)
    T.backward(loss)
    for node in (conv, act, loss):
        assert node.grad is None and node._backward is None and node._prev
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert np.all(np.isfinite(x.grad)) and np.any(w.grad != 0.0)


def test_wrapped_backward_closure_runs_once():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    out = T.gelu(x)
    calls = []
    inner = out._backward

    def wrapped(g):  # as the benchmark's tracer wraps a node's closure
        calls.append(g.copy())
        return inner(g)

    out._backward = wrapped
    T.backward(T.tsum(out))
    assert len(calls) == 1 and out._backward is None
    np.testing.assert_array_equal(calls[0], [1.0, 1.0])
    assert x.grad.shape == (2,)


def test_conv2d_tap_windows_are_computed_once_per_geometry():
    x = Tensor(np.ones((1, 2, 4, 5)))
    w = Tensor(np.ones(_SPEC_3X3.weight_shape()))
    T.conv2d(x, w, None, _SPEC_3X3)
    hits = T._tap_windows.cache_info().hits
    T.conv2d(x, w, None, _SPEC_3X3)
    assert T._tap_windows.cache_info().hits == hits + 1
    assert isinstance(T._tap_windows(_SPEC_3X3, 4, 5, 4, 5), tuple)


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
