"""Attention blocks: decomposition arithmetic, kernel-size rule, forward
passes against straight-line oracles, gradients, and cost accounting."""
import numpy as np
import pytest

import lkareid.tensor as T
from lkareid.attention import (
    HcaConfig,
    LkaConfig,
    count_params_flops,
    eca_kernel_size,
    hca_attention_map,
    hca_forward,
    hca_param_shapes,
    init_params,
    lka_forward,
    lka_param_shapes,
)
from lkareid.tensor import Tensor, gradient_check

from oracles import conv2d_oracle, hca_oracle, lka_oracle


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_21_3():
    d = LkaConfig(1, 21, 3)
    assert (d.dw_kernel, d.dd_kernel, d.dilation, d.receptive_field) == (5, 7, 3, 23)


def test_decompose_identity_case():
    d = LkaConfig(1, 1, 1)
    assert (d.dw_kernel, d.dd_kernel, d.dilation, d.receptive_field) == (1, 1, 1, 1)


def test_decompose_13_3():
    d = LkaConfig(1, 13, 3)
    assert (d.dw_kernel, d.dd_kernel, d.dilation, d.receptive_field) == (5, 5, 3, 17)


def test_decompose_rejects_bad_args():
    with pytest.raises(ValueError):
        LkaConfig(1, 4, 1)
    with pytest.raises(ValueError):
        LkaConfig(1, 7, 0)
    with pytest.raises(ValueError):
        LkaConfig(1, 7, 9)


def _impulse_support(kernel, dilation):
    """Spatial support of dw-conv followed by dilated dw-conv on a unit impulse."""
    d = LkaConfig(1, kernel, dilation)
    size = 2 * d.receptive_field + 7
    x = np.zeros((1, 1, size, size))
    x[0, 0, size // 2, size // 2] = 1.0
    w1 = np.ones((1, 1, d.dw_kernel, d.dw_kernel))
    w2 = np.ones((1, 1, d.dd_kernel, d.dd_kernel))
    pad1 = (d.dw_kernel - 1) // 2
    span2 = dilation * (d.dd_kernel - 1)
    y = conv2d_oracle(x, w1, None, padding=pad1)
    y = conv2d_oracle(y, w2, None, padding=((span2 // 2, span2 - span2 // 2),) * 2, dilation=dilation)
    rows = np.nonzero(y[0, 0].sum(axis=1))[0]
    return int(rows[-1] - rows[0] + 1)


@pytest.mark.parametrize("kernel,dilation", [(21, 3), (13, 3), (7, 2), (5, 2)])
def test_receptive_field_matches_impulse_oracle(kernel, dilation):
    d = LkaConfig(1, kernel, dilation)
    assert _impulse_support(kernel, dilation) == d.receptive_field
    assert d.receptive_field >= kernel


@pytest.mark.parametrize("channels", [16, 64, 256])
@pytest.mark.parametrize("kernel,dilation", [(21, 3), (13, 3), (7, 2), (5, 2)])
def test_parameter_ordering(kernel, dilation, channels):
    d = LkaConfig(channels, kernel, dilation)
    assert d.params_decomposed < d.params_depthwise_full < d.params_full_conv


def test_param_counts_21_3_256():
    d = LkaConfig(256, 21, 3)
    assert d.params_decomposed == 256 * 25 + 256 * 49 + 256 * 256 == 84480
    assert d.params_full_conv == 256 * 256 * 441 == 28901376


# ---------------------------------------------------------------------------
# eca kernel size


def test_eca_kernel_size_table():
    assert eca_kernel_size(512) == 5
    assert eca_kernel_size(64) == 5
    assert eca_kernel_size(2) == 1


def test_eca_kernel_size_allows_kernel_of_2c_minus_1():
    assert all(eca_kernel_size(c) <= 2 * c - 1 for c in range(1, 4097))


def test_eca_kernel_size_odd_and_monotone():
    sizes = [eca_kernel_size(c) for c in range(2, 4097, 2)]
    assert all(k % 2 == 1 for k in sizes)
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


# ---------------------------------------------------------------------------
# lka_forward


def _lka_setup(seed, channels=4, hw=9, kernel=5, dilation=2, dtype=np.float64):
    cfg = LkaConfig(channels, kernel, dilation)
    rng = np.random.default_rng(seed)
    params = init_params(lka_param_shapes(cfg), rng, dtype=dtype)
    for name, p in params.items():
        if name.endswith(".bias"):
            p.data += rng.normal(0.0, 0.1, p.shape)
    x = Tensor(rng.normal(size=(1, channels, hw, hw)))
    return cfg, params, x


def test_lka_residual_identity():
    rng = np.random.default_rng(0)
    for trial in range(100):
        cfg, params, _ = _lka_setup(trial)
        params["proj_out.weight"].data[:] = 0.0
        params["proj_out.bias"].data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 4, 9, 9)))
        out = lka_forward(x, params, cfg)
        np.testing.assert_array_equal(out.data, x.data)


def test_lka_shape_preserving():
    cfg, params, _ = _lka_setup(1, channels=8, kernel=7, dilation=2)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 12, 12)))
    assert lka_forward(x, params, cfg).shape == (2, 8, 12, 12)


def test_lka_matches_straight_line_oracle():
    cfg, params, x = _lka_setup(3)
    got = lka_forward(x, params, cfg).data
    raw = {name: p.data for name, p in params.items()}
    want = lka_oracle(x.data, raw, cfg.kernel, cfg.dilation)
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("channels,hw", [(2, 7), (4, 11), (8, 16)])
def test_lka_shape_property(channels, hw):
    cfg, params, _ = _lka_setup(channels + hw, channels=channels)
    x = Tensor(np.random.default_rng(5).normal(size=(1, channels, hw, hw)))
    assert lka_forward(x, params, cfg).shape == x.shape


def test_lka_channel_mismatch_error():
    cfg, params, _ = _lka_setup(0)
    with pytest.raises(ValueError):
        lka_forward(Tensor(np.zeros((1, 5, 9, 9))), params, cfg)


@pytest.mark.parametrize("seed", range(5))
def test_lka_gradcheck(seed):
    cfg, params, x = _lka_setup(seed, channels=3, hw=8)
    names = list(params)

    def f(xt, *ps):
        return T.tsum(lka_forward(xt, dict(zip(names, ps)), cfg))

    err = gradient_check(f, [x, *params.values()], sample=20, rng=np.random.default_rng(seed))
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# hca_forward


def _hca_setup(seed, channels=8, hw=10, local_grid=5, dtype=np.float64):
    cfg = HcaConfig(channels, local_grid)
    rng = np.random.default_rng(seed)
    params = init_params(hca_param_shapes(cfg), rng, dtype=dtype)
    for name, p in params.items():
        if name.endswith(".bias"):
            p.data += rng.normal(0.0, 0.1, p.shape)
    x = Tensor(rng.normal(size=(1, channels, hw, hw)))
    return cfg, params, x


def test_hca_zero_params_halves_input():
    cfg, params, x = _hca_setup(0)
    for p in params.values():
        p.data[:] = 0.0
    out = hca_forward(x, params, cfg)
    np.testing.assert_allclose(out.data, 0.5 * x.data, atol=1e-15)


def test_hca_shape_preserving():
    cfg, params, _ = _hca_setup(1)
    x = Tensor(np.random.default_rng(2).normal(size=(2, 8, 10, 10)))
    assert hca_forward(x, params, cfg).shape == (2, 8, 10, 10)


def test_hca_matches_straight_line_oracle():
    cfg, params, x = _hca_setup(3)
    got = hca_forward(x, params, cfg).data
    raw = {name: p.data for name, p in params.items()}
    want = hca_oracle(x.data, raw, cfg.local_grid, cfg.conv1d_kernel)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_hca_attention_map_in_open_unit_interval():
    cfg, params, x = _hca_setup(4)
    a = hca_attention_map(x, params, cfg).data
    assert np.all(a > 0.0) and np.all(a < 1.0)


def test_hca_rejects_small_spatial_extent():
    cfg, params, _ = _hca_setup(0)
    with pytest.raises(ValueError):
        hca_forward(Tensor(np.zeros((1, 8, 4, 4))), params, cfg)


@pytest.mark.parametrize("seed", range(5))
def test_hca_gradcheck(seed):
    cfg, params, x = _hca_setup(seed, channels=4, hw=7, local_grid=3)
    names = list(params)

    def f(xt, *ps):
        return T.tsum(hca_forward(xt, dict(zip(names, ps)), cfg))

    err = gradient_check(f, [x, *params.values()], sample=20, rng=np.random.default_rng(seed))
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# cost accounting


def test_count_params_flops_pointwise_conv():
    # 1x1 conv C->C on HxW: params C*C + C bias, FLOPs 2*C*C*H*W
    c, h, w = 16, 8, 8
    cfg = LkaConfig(c, kernel=1, dilation=1)
    params, _ = count_params_flops(cfg, (1, c, h, w))
    shapes = dict((n, s) for n, s, _ in lka_param_shapes(cfg))
    assert int(np.prod(shapes["proj_in.weight"])) + int(np.prod(shapes["proj_in.bias"])) == c * c + c


@pytest.mark.parametrize("cfg,shape", [
    (LkaConfig(8, 7, 2), (1, 8, 12, 12)),
    (LkaConfig(16, 21, 3), (1, 16, 24, 24)),
    (LkaConfig(4, 5, 2), (2, 4, 10, 10)),
])
def test_lka_flops_scale_linearly(cfg, shape):
    n, c, h, w = shape
    _, base = count_params_flops(cfg, shape)
    _, doubled = count_params_flops(cfg, (n, c, 2 * h, w))
    assert 1.9 <= doubled / base <= 2.1


def test_hca_cost_accounting_params():
    cfg = HcaConfig(64)
    params, flops = count_params_flops(cfg, (1, 64, 10, 10))
    assert params == 2 * cfg.conv1d_kernel + 2  # two kernels, two biases
    assert flops > 0


@pytest.mark.parametrize("cfg,shape,cost", [
    (LkaConfig(16, 21, 3), (2, 16, 24, 24), (2032, 4552704)),
    (HcaConfig(64), (2, 64, 10, 11), (12, 92800)),
])
def test_block_cost_golden(cfg, shape, cost):
    assert count_params_flops(cfg, shape) == cost


def test_count_params_flops_rejects_unknown_config():
    with pytest.raises(TypeError):
        count_params_flops(object(), (1, 3, 8, 8))
