"""Large-kernel spatial attention and hybrid channel attention blocks.

A K x K convolution is replaced by a (2d-1) x (2d-1) depthwise conv, a
ceil(K/d) x ceil(K/d) depthwise conv with dilation d, and a 1x1 conv.
The hybrid channel block pools the feature map to a small k_s x k_s grid,
runs 1-d cross-channel convolutions on a global and a per-bin local
branch, restores the local branch's resolution by anti-pooling, broadcasts
the global one over it, and gates the input with a sigmoid of their sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch

import numpy as np

from . import tensor as T
from .tensor import Conv2dSpec, Tensor


@dataclass(frozen=True)
class LkaConfig:
    """Channels plus the (K, d) pair driving the kernel decomposition.
    The params_* counts are weights only, without biases (lka_params_flops
    counts both); the depthwise-full variant is a K x K depthwise conv plus
    the same 1x1 mixing, so all three mix channels."""

    channels: int
    kernel: int = 7
    dilation: int = 2

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be odd and >= 1, got {self.kernel}")
        if not 1 <= self.dilation <= self.kernel:
            raise ValueError(f"dilation must be in [1, {self.kernel}], got {self.dilation}")

    @property
    def dw_kernel(self):
        return 2 * self.dilation - 1

    @property
    def dd_kernel(self):
        return math.ceil(self.kernel / self.dilation)

    @property
    def receptive_field(self):
        return (self.dd_kernel - 1) * self.dilation + self.dw_kernel

    @property
    def params_decomposed(self):
        return self.channels * (self.dw_kernel**2 + self.dd_kernel**2 + self.channels)

    @property
    def params_depthwise_full(self):
        return self.channels * self.kernel**2 + self.channels**2

    @property
    def params_full_conv(self):
        return self.channels**2 * self.kernel**2


# ECA-Net's kernel-size gamma and b, used by every HCA block
ECA_GAMMA, ECA_B = 2.0, 2.0


@dataclass(frozen=True)
class HcaConfig:
    """Channels and the local pooling grid; the 1-d kernel size follows
    from the channel count by the ECA rule."""

    channels: int
    local_grid: int = 5

    def __post_init__(self):
        if self.local_grid < 1:
            raise ValueError(f"local_grid must be >= 1, got {self.local_grid}")
        eca_kernel_size(self.channels)  # checks channels

    @property
    def conv1d_kernel(self):
        return eca_kernel_size(self.channels)

    def check_extent(self, h, w):
        """The local grid pools an h x w map, so it may not exceed it."""
        if self.local_grid > min(h, w):
            raise ValueError(f"local grid {self.local_grid} exceeds spatial extent {h}x{w}")


def eca_kernel_size(channels):
    """ECA-Net's adaptive odd 1-d kernel size for a channel count:
    log2(C)/ECA_GAMMA + ECA_B/ECA_GAMMA truncated toward zero, bumped up by
    one when even.  At gamma = b = 2 it is never wider than 2C - 1."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    k = int(math.log2(channels) / ECA_GAMMA + ECA_B / ECA_GAMMA)
    return k + 1 if k % 2 == 0 else k


# ---------------------------------------------------------------------------
# parameters

_UNIFORM, _ZEROS = "uniform", "zeros"


def _same_padding(kernel, dilation):
    span = dilation * (kernel - 1)
    return ((span // 2, span - span // 2),) * 2 if span % 2 else span // 2


def lka_convs(cfg):
    """(name, Conv2dSpec) for the five convolutions of one LKA block, in
    creation order: proj_in, dw, dd, attn, proj_out."""
    c = cfg.channels
    pw = Conv2dSpec(c, c, (1, 1))
    dw = Conv2dSpec(c, c, (cfg.dw_kernel,) * 2, padding=_same_padding(cfg.dw_kernel, 1), groups=c)
    dd = Conv2dSpec(
        c, c, (cfg.dd_kernel,) * 2,
        padding=_same_padding(cfg.dd_kernel, cfg.dilation), dilation=cfg.dilation, groups=c,
    )
    return [("proj_in", pw), ("dw", dw), ("dd", dd), ("attn", pw), ("proj_out", pw)]


def _weight_bias(weight_shape):
    """(suffix, shape, init) for a weight and the bias of its output rows."""
    return [("weight", tuple(weight_shape), _UNIFORM), ("bias", (weight_shape[0],), _ZEROS)]


def lka_param_shapes(cfg):
    """(name, shape, init) for one LKA block, in creation order."""
    return [
        (f"{name}.{suffix}", shape, init)
        for name, spec in lka_convs(cfg)
        for suffix, shape, init in _weight_bias(spec.weight_shape())
    ]


def hca_param_shapes(cfg):
    """(name, shape, init) for one HCA block: two 1-d kernels with biases."""
    k = cfg.conv1d_kernel
    return [
        ("global.weight", (k,), _UNIFORM),
        ("global.bias", (1,), _ZEROS),
        ("local.weight", (k,), _UNIFORM),
        ("local.bias", (1,), _ZEROS),
    ]


def init_params(shapes, rng, dtype=np.float64):
    """LeCun-uniform weights, zero biases, as a name->Tensor dict."""
    params = {}
    for name, shape, kind in shapes:
        if kind == _ZEROS:
            data = np.zeros(shape, dtype=dtype)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else int(shape[0])
            bound = math.sqrt(3.0 / fan_in)
            data = rng.uniform(-bound, bound, shape).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# forward passes


def lka_forward(x, params, cfg):
    """Project, build the attention map from the decomposed large kernel,
    gate, re-project, and add the residual.  Shape-preserving."""
    c = cfg.channels
    if x.shape[1] != c:
        raise ValueError(f"input has {x.shape[1]} channels, config wants {c}")

    def conv(z, layer):
        name, spec = layer
        return T.conv2d(z, params[f"{name}.weight"], params[f"{name}.bias"], spec)

    proj_in, dw, dd, attn, proj_out = lka_convs(cfg)
    f1 = conv(T.gelu(x), proj_in)
    a = conv(conv(conv(f1, dw), dd), attn)
    return T.add(conv(T.mul(a, f1), proj_out), x)


def hca_attention_map(x, params, cfg):
    """The sigmoid gate combining the global and per-bin channel branches."""
    n, c, h, w = x.shape
    if c != cfg.channels:
        raise ValueError(f"input has {c} channels, config wants {cfg.channels}")
    cfg.check_extent(h, w)
    ks = cfg.local_grid
    pooled = T.adaptive_avg_pool(x, (ks, ks))  # (N, C, ks, ks)

    # global branch: GAP then 1-d conv along channels
    g = T.adaptive_avg_pool(pooled, (1, 1))
    g = T.reshape(g, (n, 1, c))
    g = T.conv1d(g, params["global.weight"], params["global.bias"])
    g = T.reshape(g, (n, c, 1, 1))

    # local branch: one channel sequence per pooling bin, shared kernel
    loc = T.reshape(pooled, (n, c, ks * ks))
    loc = T.transpose(loc, (0, 2, 1))  # (N, ks*ks, C)
    loc = T.conv1d(loc, params["local.weight"], params["local.bias"])
    loc = T.transpose(loc, (0, 2, 1))
    loc = T.reshape(loc, (n, c, ks, ks))
    u_local = T.anti_pool(loc, (h, w))

    # the global (N, C, 1, 1) map broadcasts over every position, as anti-pooling it would
    return T.sigmoid(T.add(g, u_local))


def hca_forward(x, params, cfg):
    """Gate the input with the hybrid channel attention map."""
    return T.mul(x, hca_attention_map(x, params, cfg))


# ---------------------------------------------------------------------------
# cost accounting


def param_count(shapes):
    """Total element count of (name, shape, init) parameter entries."""
    return sum(math.prod(s) for _, s, _ in shapes)


def lka_params_flops(cfg, input_shape):
    """Exact parameter count (weights and biases) and 2*MAC FLOPs of one LKA block at input_shape."""
    n, c, h, w = input_shape
    if c != cfg.channels:
        raise ValueError("input_shape channels do not match config")
    flops = sum(spec.flops(h, w, n) for _, spec in lka_convs(cfg))
    # gelu, gate multiply, residual add: one flop per element each
    flops += 3 * n * c * h * w
    return param_count(lka_param_shapes(cfg)), flops


def hca_params_flops(cfg, input_shape):
    """Parameter count (weights and biases) and FLOPs of one HCA block at input_shape."""
    n, c, h, w = input_shape
    if c != cfg.channels:
        raise ValueError("input_shape channels do not match config")
    cfg.check_extent(h, w)
    ks, k = cfg.local_grid, cfg.conv1d_kernel
    flops = n * c * h * w  # local average pooling reads each input once
    flops += n * c * ks * ks  # GAP over the pooled grid
    flops += 2 * k * c * n  # global-branch conv1d
    flops += 2 * k * c * ks * ks * n  # local-branch conv1d
    flops += 3 * n * c * h * w  # fuse add, sigmoid, gate multiply
    return param_count(hca_param_shapes(cfg)), flops


@singledispatch
def count_params_flops(cfg, input_shape):
    """Dispatch cost accounting over block and model configs (the model
    registers its own config type)."""
    raise TypeError(f"unsupported config type {type(cfg).__name__}")


count_params_flops.register(LkaConfig, lka_params_flops)
count_params_flops.register(HcaConfig, hca_params_flops)
