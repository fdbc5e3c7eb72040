"""Dense tensors with reverse-mode automatic differentiation on numpy.

Covers exactly the operations the attention blocks, the four-branch
network, and the re-ID losses need: 2-d and 1-d convolution, adaptive
average pooling and its anti-pooling inverse, GELU, sigmoid, broadcasted
add/multiply, matmul, reductions, and L2 normalization.

Every forward op validates that finite inputs produce finite outputs.
Verification paths run in float64; training runs in float32.

`conv2d` moves data in kernel-tap slices of a channels-last padded input:
dense and grouped convolutions fill their im2col columns from the slices
and run one grouped GEMM; depthwise ones multiply-add the slices directly.
Its float32 outputs and gradients equal those of the plain im2col/GEMM
arithmetic in `tests/oracles.conv2d_gemm_oracle` bit for bit, which keeps
training trajectories reproducible.  The slow mathematical reference is
`tests/oracles.conv2d_oracle`.

A convolution's geometry is decided once: `Conv2dSpec` normalizes kernel,
stride, dilation and padding when it is built, and everything else reads
its fields.  `conv1d` takes its kernel size from the weight's length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, expit


class NumericsError(ArithmeticError):
    """A forward op produced NaN/Inf from finite inputs, or hit a zero norm."""


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values produced by {op}")


def _as_pair(v):
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


def _as_padding(v):
    """Normalize padding to ((top, bottom), (left, right)).

    Accepts an int, an (ph, pw) pair, or the full per-side form.  The
    asymmetric form exists for "same" padding of even effective kernels
    inside the attention blocks.
    """
    if isinstance(v, (tuple, list)) and len(v) == 2 and isinstance(v[0], (tuple, list)):
        (pt, pb), (pl, pr) = v
        return (int(pt), int(pb)), (int(pl), int(pr))
    ph, pw = _as_pair(v)
    return (ph, ph), (pw, pw)


@dataclass(frozen=True)
class Conv2dSpec:
    """Shape contract for a 2-d convolution.

    `kernel`, `stride` and `dilation` may be given as an int or a pair, and
    `padding` as an int, a pair or ((top, bottom), (left, right)).  They are
    stored normalized: int pairs, and padding per side.
    """

    in_channels: int
    out_channels: int
    kernel: tuple
    stride: object = 1
    padding: object = 0
    dilation: object = 1
    groups: int = 1
    has_bias: bool = True

    def __post_init__(self):
        for name in ("kernel", "stride", "dilation"):
            object.__setattr__(self, name, _as_pair(getattr(self, name)))
        object.__setattr__(self, "padding", _as_padding(self.padding))
        if min(self.kernel) < 1:
            raise ValueError(f"kernel extents must be >= 1, got {self.kernel}")
        if self.groups < 1:
            raise ValueError("groups must be >= 1")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels}, {self.out_channels}) not divisible "
                f"by groups ({self.groups})"
            )
        if min(self.stride) < 1:
            raise ValueError("stride must be >= 1")
        if min(self.dilation) < 1:
            raise ValueError("dilation must be >= 1")

    def weight_shape(self):
        kh, kw = self.kernel
        return (self.out_channels, self.in_channels // self.groups, kh, kw)

    def out_size(self, h, w):
        kh, kw = self.kernel
        sh, sw = self.stride
        dh, dw = self.dilation
        (pt, pb), (pl, pr) = self.padding
        oh = (h + pt + pb - dh * (kh - 1) - 1) // sh + 1
        ow = (w + pl + pr - dw * (kw - 1) - 1) // sw + 1
        if oh < 1 or ow < 1:
            raise ValueError(
                f"conv output extent < 1 for input {h}x{w} with spec {self}"
            )
        return oh, ow

    def flops(self, h, w, n):
        """2*MAC FLOPs of the convolution on n inputs of h x w."""
        oh, ow = self.out_size(h, w)
        kh, kw = self.kernel
        return 2 * self.out_channels * (self.in_channels // self.groups) * kh * kw * oh * ow * n


class Tensor:
    """N-d array plus the bookkeeping for reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; the real work is in the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def _wrap(x, dtype):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _node(data, parents, op_name, backward):
    """An op's output.  If a parent requires gradients, link the parents and
    keep `backward`, the op's closure that adds the output's gradient, its
    one argument, into them.

    No closure refers to its own output, so a graph is freed as soon as
    its last reference goes.
    """
    _check_finite(data, op_name)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g.astype(t.data.dtype, copy=False)


def _unbroadcast(g, shape):
    """Reduce a gradient back down to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss):
    """Reverse-mode pass from a scalar; accumulates into .grad additively."""
    if loss.size != 1:
        raise ValueError("backward requires a scalar tensor")
    if not loss.requires_grad:
        raise ValueError("loss does not depend on any requires_grad tensor")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# elementwise / linear algebra


def add(a, b):
    b = _wrap(b, a.dtype)

    def _bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(a.data + b.data, [a, b], "add", _bw)


def mul(a, b):
    b = _wrap(b, a.dtype)

    def _bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(a.data * b.data, [a, b], "mul", _bw)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d tensors")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def _bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(a.data @ b.data, [a, b], "matmul", _bw)


def tsum(x):
    """Sum of every element, as a 0-d tensor."""

    def _bw(g):
        _accum(x, np.broadcast_to(g, x.shape))

    return _node(x.data.sum(), [x], "sum", _bw)


def reshape(x, shape):
    def _bw(g):
        _accum(x, g.reshape(x.shape))

    return _node(x.data.reshape(shape), [x], "reshape", _bw)


def transpose(x, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def _bw(g):
        _accum(x, g.transpose(inv))

    return _node(np.ascontiguousarray(x.data.transpose(axes)), [x], "transpose", _bw)


def concat(tensors, axis):
    tensors = list(tensors)

    def _bw(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, part)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, "concat", _bw)


def gather_rows(table, indices):
    """Row lookup into a 2-d table; the backbone of the metadata embeddings."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("indices must be a 1-d integer array")
    if idx.min(initial=0) < 0 or (idx.size and idx.max() >= table.shape[0]):
        raise ValueError("index out of range for embedding table")

    def _bw(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, idx, g)
        _accum(table, dtable)

    return _node(table.data[idx], [table], "gather_rows", _bw)


def gelu(x):
    """Exact Gaussian-CDF GELU (not the tanh approximation)."""
    cdf = 0.5 * (1.0 + erf(x.data / _SQRT2))

    def _bw(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        _accum(x, g * (cdf + x.data * pdf))

    return _node(x.data * cdf, [x], "gelu", _bw)


def sigmoid(x):
    s = expit(x.data)

    def _bw(g):
        _accum(x, g * s * (1.0 - s))

    return _node(s, [x], "sigmoid", _bw)


def l2_normalize(x, axis):
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True))
    if np.any(norm == 0.0):
        raise NumericsError("l2_normalize: zero-norm slice")
    y = x.data / norm

    def _bw(g):
        proj = (g * x.data).sum(axis=axis, keepdims=True)
        _accum(x, g / norm - x.data * (proj / norm**3))

    return _node(y, [x], "l2_normalize", _bw)


# ---------------------------------------------------------------------------
# convolution


def _tap_slices(spec, oh, ow):
    """(row slice, column slice) of the padded input that each kernel tap
    reads, in (ky, kx) order: kh*kw strided windows of oh x ow positions."""
    kh, kw = spec.kernel
    sh, sw = spec.stride
    dh, dw = spec.dilation
    return [
        (
            slice(ky * dh, ky * dh + sh * (oh - 1) + 1, sh),
            slice(kx * dw, kx * dw + sw * (ow - 1) + 1, sw),
        )
        for ky in range(kh)
        for kx in range(kw)
    ]


def _pad_channels_last(x, spec):
    """Zero-padded (H + pt + pb, W + pl + pr, N, C) copy of NCHW `x`.  A tap
    slice of it is a grid of contiguous N*C blocks."""
    n, c, h, w = x.shape
    (pt, pb), (pl, pr) = spec.padding
    xp = np.zeros((h + pt + pb, w + pl + pr, n, c), dtype=x.dtype)
    xp[pt : pt + h, pl : pl + w] = x.transpose(2, 3, 0, 1)
    return xp


def _im2col(xp, taps):
    """Columns (N, C, kh*kw, oh*ow) stored in memory as [tap][oh][ow][n][c].

    The GEMMs below read them in exactly this layout, the one a fancy-indexed
    gather produces; BLAS and numpy's own matmul loop pick their summation
    order from the strides, so another layout would change the float bits.
    """
    cols = np.stack([xp[tap] for tap in taps])  # (T, oh, ow, N, C)
    t, oh, ow, n, c = cols.shape
    return cols.reshape(t, oh * ow, n, c).transpose(2, 3, 0, 1)


def conv2d(x, weight, bias, spec):
    """2-d convolution over NCHW input, differentiable in x, weight, bias.

    Dense and grouped convolutions are an im2col GEMM; depthwise ones
    (one input and one output channel per group) multiply-add the kh*kw
    shifted input slices directly.  Both keep the float32 results of
    `tests/oracles.conv2d_gemm_oracle` bit for bit.
    """
    if x.data.ndim != 4:
        raise ValueError("conv2d expects NCHW input")
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise ValueError(f"input has {c} channels, spec wants {spec.in_channels}")
    if weight.shape != spec.weight_shape():
        raise ValueError(f"weight shape {weight.shape} != {spec.weight_shape()}")
    if spec.has_bias != (bias is not None):
        raise ValueError("bias presence does not match spec.has_bias")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ValueError(f"bias shape {bias.shape} != ({spec.out_channels},)")

    kh, kw = spec.kernel
    groups = spec.groups
    icpg = spec.in_channels // groups
    ocpg = spec.out_channels // groups
    oh, ow = spec.out_size(h, w)
    # Depthwise convs multiply-add tap slices, which repeats numpy's own
    # matmul loop on their GEMM.  With one sample of one channel, or a 1x1
    # output, numpy hands that GEMM to BLAS instead, so those stay GEMMs.
    depthwise = icpg == ocpg == 1 and n * c > 1 and oh * ow > 1
    taps = _tap_slices(spec, oh, ow)
    xp = _pad_channels_last(x.data, spec)
    pad_shape = xp.shape
    wg = weight.data.reshape(groups, ocpg, icpg * kh * kw)
    wt = weight.data.reshape(-1, kh * kw)  # depthwise: one row of taps per channel

    if depthwise:
        # From zero, one product per tap added in tap order: the arithmetic
        # of numpy's matmul loop on the strided depthwise GEMM.
        acc = np.zeros((oh, ow, n, c), dtype=np.result_type(xp, wt))
        for t, tap in enumerate(taps):
            acc += xp[tap] * wt[:, t]
        out_data = acc.transpose(2, 3, 0, 1)
        colsg = None  # built from xp in the backward, for the weight gradient
    else:
        colsg = _im2col(xp, taps).reshape(n, groups, icpg * kh * kw, oh * ow)
        out_data = np.matmul(wg, colsg).reshape(n, spec.out_channels, oh, ow)
        xp = None  # the backward needs the columns, not the padded input
    # Later reductions sum in memory order: the output is C-ordered NCHW
    # whichever path made it.
    if bias is None:
        out_data = np.ascontiguousarray(out_data)
    else:
        out_data = np.add(out_data, bias.data[:, None, None], order="C")

    parents = [x, weight] if bias is None else [x, weight, bias]

    def _bw(g):
        doutg = g.reshape(n, groups, ocpg, oh * ow)
        if weight.requires_grad:
            cols = colsg if colsg is not None else _im2col(xp, taps).reshape(n, groups, kh * kw, oh * ow)
            dw = np.matmul(doutg, cols.swapaxes(2, 3)).sum(axis=0)
            _accum(weight, dw.reshape(weight.shape))
        if x.requires_grad:
            # Scatter each tap's column gradient back in tap order.
            if depthwise:
                g_cl = np.ascontiguousarray(g.transpose(2, 3, 0, 1))
                dtaps = (g_cl * wt[:, t] for t in range(kh * kw))
            else:
                dcols = np.matmul(wg.swapaxes(1, 2), doutg)
                dtaps = dcols.reshape(n, c, kh * kw, oh, ow).transpose(2, 3, 4, 0, 1)
            dxp = np.zeros(pad_shape, dtype=np.result_type(wg, g))
            for tap, d in zip(taps, dtaps):
                dxp[tap] += d
            (pt, _pb), (pl, _pr) = spec.padding
            _accum(x, dxp[pt : pt + h, pl : pl + w].transpose(2, 3, 0, 1))
        if bias is not None:
            _accum(bias, g.sum(axis=(0, 2, 3)))

    return _node(out_data, parents, "conv2d", _bw)


def conv1d(x, weight, bias):
    """Length-preserving 1-d convolution with a single shared kernel vector.

    Input is (B, C_seq, L); the same weight vector slides along every
    sequence.  The kernel size k is the weight's length, odd, and the
    padding is (k-1)/2.
    """
    if x.data.ndim != 3:
        raise ValueError("conv1d expects (B, C_seq, L) input")
    if weight.data.ndim != 1:
        raise ValueError(f"conv1d weight must be 1-d, got shape {weight.shape}")
    (k,) = weight.shape
    if k % 2 == 0:
        raise ValueError(f"conv1d kernel must be odd and >= 1, got {k}")
    padding = (k - 1) // 2
    b, cs, length = x.shape
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    idx = np.arange(k)[:, None] + np.arange(length)[None, :]
    cols = xp[:, :, idx]  # (B, C_seq, k, L)
    out_data = np.einsum("k,bckl->bcl", weight.data, cols)
    if bias is not None:
        out_data = out_data + bias.data.reshape(-1)[0]

    parents = [x, weight] if bias is None else [x, weight, bias]

    def _bw(g):
        _accum(weight, np.einsum("bcl,bckl->k", g, cols))
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for j in range(k):
                dxp[:, :, j : j + length] += weight.data[j] * g
            _accum(x, dxp[:, :, padding : padding + length])
        if bias is not None:
            _accum(bias, np.full(bias.shape, g.sum(), dtype=bias.dtype))

    return _node(out_data, parents, "conv1d", _bw)


# ---------------------------------------------------------------------------
# pooling


def _pool_bins(extent, out_extent):
    """Bin (start, stop) pairs: bin i covers [floor(i*H/o), ceil((i+1)*H/o))."""
    return [
        (math.floor(i * extent / out_extent), math.ceil((i + 1) * extent / out_extent))
        for i in range(out_extent)
    ]


def adaptive_avg_pool(x, out_hw):
    """Average-pool NCHW input to an (oh, ow) grid; (1, 1) is the global mean."""
    if x.data.ndim != 4:
        raise ValueError("adaptive_avg_pool expects NCHW input")
    n, c, h, w = x.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if not (1 <= oh <= h and 1 <= ow <= w):
        raise ValueError(f"pool output {oh}x{ow} invalid for input {h}x{w}")
    rows = _pool_bins(h, oh)
    cols = _pool_bins(w, ow)
    out_data = np.empty((n, c, oh, ow), dtype=x.dtype)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            out_data[:, :, i, j] = x.data[:, :, r0:r1, c0:c1].mean(axis=(2, 3))

    def _bw(g):
        dx = np.zeros_like(x.data)
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                area = (r1 - r0) * (c1 - c0)
                dx[:, :, r0:r1, c0:c1] += g[:, :, i : i + 1, j : j + 1] / area
        _accum(x, dx)

    return _node(out_data, [x], "adaptive_avg_pool", _bw)


def _owner_map(extent, out_extent):
    """For each output position, the bin whose value it replicates.

    Later bins win where the floor/ceil bins overlap, matching a
    replication loop in bin order.
    """
    owner = np.zeros(extent, dtype=np.intp)
    for i, (a, b) in enumerate(_pool_bins(extent, out_extent)):
        owner[a:b] = i
    return owner


def anti_pool(x, target_hw):
    """Replicate each pooled bin value over the region its pooling bin covered."""
    if x.data.ndim != 4:
        raise ValueError("anti_pool expects NCHW input")
    n, c, oh, ow = x.shape
    h, w = int(target_hw[0]), int(target_hw[1])
    if h < oh or w < ow:
        raise ValueError(f"anti_pool target {h}x{w} smaller than input {oh}x{ow}")
    owner_h = _owner_map(h, oh)
    owner_w = _owner_map(w, ow)

    def _bw(g):
        dx = np.zeros_like(x.data)
        np.add.at(dx, (slice(None), slice(None), owner_h[:, None], owner_w[None, :]), g)
        _accum(x, dx)

    return _node(x.data[:, :, owner_h[:, None], owner_w[None, :]], [x], "anti_pool", _bw)


# ---------------------------------------------------------------------------
# gradient checking


def gradient_check(f, inputs, sample=None, rng=None):
    """Max relative error between analytic and central-difference gradients.

    `f` takes the given tensors and returns a scalar Tensor; it must be
    deterministic (checked with two forward passes) and run in float64.
    `sample` limits the check to that many randomly chosen elements per
    input tensor; by default every element is checked.  Only the analytic
    pass builds a graph: the other forwards run on views of the inputs that
    need no gradient, which see every in-place edit of the inputs' data.
    """
    inputs = list(inputs)
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("gradient_check requires float64 inputs")
        t.requires_grad = True
    views = [Tensor(t.data) for t in inputs]
    out1 = f(*views)
    out2 = f(*views)
    if not np.array_equal(out1.data, out2.data):
        raise ValueError("gradient_check: f is not deterministic")

    for t in inputs:
        t.grad = None
    loss = f(*inputs)
    backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]

    if rng is None:
        rng = np.random.default_rng(0)
    h = 1e-5  # central-difference step
    worst = 0.0
    for t, ga in zip(inputs, analytic):
        if sample is not None and t.size > sample:
            idxs = rng.choice(t.size, size=sample, replace=False)
        else:
            idxs = range(t.size)
        flat = t.data.reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*views).item()
            flat[i] = orig - h
            fm = f(*views).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(ga.reshape(-1)[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if rel > worst:
                worst = rel
    return worst
