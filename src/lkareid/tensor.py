"""Dense tensors with reverse-mode automatic differentiation on numpy.

Covers exactly the operations the attention blocks, the four-branch
network, and the re-ID losses need: 2-d and 1-d convolution, adaptive
average pooling and its anti-pooling inverse, GELU, sigmoid, broadcasted
add/multiply, matmul, reductions, and L2 normalization.

Every forward op validates that finite inputs produce finite outputs.
Verification paths run in float64; training runs in float32.

`backward` consumes the graph: right after a node's closure has run, the
node drops its gradient and its closure, which frees the arrays the
closure saved.  Only leaves keep `.grad`.  Nodes keep their parents, so
the activations go together when the caller drops the loss, and a later
backward that reaches a consumed node raises ValueError before any
gradient changes.

A closure saves no array that copying rebuilds from data the graph
already holds: apart from GELU's CDF, sigmoid's output and small per-slice
or index arrays, it keeps only its parents and views of their data.  A
conv's tap columns, reordered or tiled weights and conv1d's padded copy
are built again in its backward, byte for byte as the forward built them.  So
a backward reads its parents' and weights' data as they are when it runs:
editing them in place between a forward and its backward is unsupported,
as it always was for `mul` and `matmul`.

Activations keep NCHW shapes but are channels-last in memory: `conv2d`
returns an NCHW view (`.transpose(2, 3, 0, 1)`) of a C-contiguous
(H, W, N, C) array, and its tap columns, pooling and anti-pooling read and
write that layout without transposing copies.  Elementwise ops
keep it through numpy's K order.  An op takes input in any layout and
gives the same bits.  Two reductions add in memory order, and each runs on
a C-ordered NCHW copy to pin its float32 sums: the conv bias gradient and
the one-bin mean.  That keeps training bitwise reproducible across the
layout change until the acceptance gate stops depending on float32 bits.

Every `conv2d` reads its taps one way, and none pads: `_tap_windows` gives
each kernel tap's window of the unpadded input and the outputs it reaches.
A dense conv copies each window into its tap's columns of a zeroed buffer,
leaving +0 where the tap reads padding (a 1x1 conv without padding takes
its input as the columns), and runs one GEMM over the whole batch; a
depthwise one multiply-adds each window into its outputs, skipping
padding's +-0 products, and its weight gradient sums each tap's products
over the same windows.  Both scatter input gradients through the windows.
Other group counts are rejected.  The slow reference is
`tests/oracles.conv2d_oracle`.

Pooling adds each bin's window tap by tap in row-major order, the per-bin
order of numpy's mean of a 2 x 2 window, with one slice or gather per tap
across all bins; a one-bin grid is one whole-plane mean.  The backward
passes of `adaptive_avg_pool` and `anti_pool` add each position's terms in
bin order.  A position's covering bins and a bin's owned positions are
runs, so every rank map comes from the bins' integer ends.  The slow
references are `tests/oracles.adaptive_pool_oracle` and `anti_pool_oracle`.

A convolution's geometry is decided once: `Conv2dSpec` normalizes kernel,
stride, dilation and padding when it is built, and everything else reads
its fields.  `conv1d` takes its kernel size from the weight's length.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
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
        if not (self.groups == 1 or self.groups == self.in_channels == self.out_channels > 1):
            raise ValueError(
                f"groups must be 1 (dense) or equal both channel counts (depthwise), got "
                f"{self.groups} for ({self.in_channels}, {self.out_channels}) channels"
            )
        if min(self.stride) < 1:
            raise ValueError("stride must be >= 1")
        if min(self.dilation) < 1:
            raise ValueError("dilation must be >= 1")
        if min(map(min, self.padding)) < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

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
        # written once, not added to zeros: only a -0 entry differs (0 + -0 is +0)
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
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
    """Reverse-mode pass from a scalar; adds into the leaves' .grad.

    Consumes the graph: once a node's closure has run, the node drops its
    gradient and its closure, and with it the arrays the closure saved.
    A graph is walked by one backward only; reaching a consumed node raises
    ValueError before any gradient changes.
    """
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
        if node._prev and node._backward is None:
            raise ValueError("backward reached a graph node that an earlier backward consumed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    _accum(loss, np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = node._backward = None


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
    """Exact Gaussian-CDF GELU (not the tanh approximation).

    The CDF 0.5 * (1 + erf(x / sqrt 2)) is built in one buffer, with `erf`
    run on |x| / sqrt 2 and its sign restored: scipy's `erf` evaluates
    erf(-z) as -erf(z), so the bits are the same, and `erf` then takes no
    data-dependent branch on the sign.
    """
    cdf = np.divide(x.data, _SQRT2, out=np.empty_like(x.data))
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, x.data, out=cdf)
    cdf += 1.0
    cdf *= 0.5

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


def _tap_columns(x_cl, windows, oh, ow):
    """A dense conv's GEMM input, rows [oh][ow][n] by columns [ky][kx][c]: each
    tap's window of channels-last `x_cl` copied into a zeroed buffer, so +0
    over padding.  A lone tap read at every output is `x_cl`, a view if it can be."""
    n, c = x_cl.shape[2:]
    (o, i), *rest = windows
    if not rest and o == (slice(0, oh), slice(0, ow)):
        return np.ascontiguousarray(x_cl[i]).reshape(oh * ow * n, c)
    cols = np.zeros((oh, ow, n, len(windows), c), dtype=x_cl.dtype)
    for t, (o, i) in enumerate(windows):
        cols[o][..., t, :] = x_cl[i]
    return cols.reshape(oh * ow * n, len(windows) * c)


@lru_cache(maxsize=128)
def _tap_windows(spec, h, w, oh, ow):
    """(output window, input window) of each kernel tap, in (ky, kx) order:
    the output positions where the tap reads the unpadded h x w input, and
    the input it reads there.  Where a tap reads padding it would add a +-0
    product, which changes no bit of a sum that starts from +0."""
    rows, cols = [], []
    extents = zip(spec.kernel, spec.dilation, spec.stride, spec.padding, (h, w), (oh, ow))
    for windows, (k, d, s, (pad, _), n, on) in zip((rows, cols), extents):
        for off in range(-pad, k * d - pad, d):  # input index that output 0 reads
            i0 = max(0, -(off // s))
            i1 = max(i0, min(on, (n - 1 - off) // s + 1))
            windows.append((slice(i0, i1), slice(i0 * s + off, i1 * s + off, s)))
    return tuple(((r[0], c[0]), (r[1], c[1])) for r in rows for c in cols)


def conv2d(x, weight, bias, spec):
    """2-d convolution over NCHW input, differentiable in x, weight, bias.

    The output is an NCHW view of a channels-last (oh, ow, N, O) array.
    Both paths, chosen by `spec.groups`, read each tap's window of the
    unpadded input.  A dense conv (groups == 1) is one GEMM over the whole
    batch: channels-last columns (oh*ow*N, kh*kw*C) copied from those
    windows times the weight reordered to (O, kh*kw*C); its backward is one
    GEMM for the weight gradient and one for the column gradient.  A
    depthwise conv (one channel per group) multiply-adds the windows
    directly, and its weight gradient sums each tap's products over them.
    The closure keeps x and weight, not the columns or the reordered or
    tiled weights: the backward rebuilds those it needs with the forward's
    own code, at the cost of the forward's copies.
    Of the two C-ordered copies that pin float32 order (the other is the
    one-bin mean), the bias gradient's is here.
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

    oh, ow = spec.out_size(h, w)
    dense = spec.groups == 1
    windows = _tap_windows(spec, h, w, oh, ow)
    x_cl = x.data.transpose(2, 3, 0, 1)

    # the forward's derived operands; the backward rebuilds each one it needs
    # from x and weight, so the graph holds no copy of them
    def _columns():
        return _tap_columns(x_cl, windows, oh, ow)

    def _tap_weights():
        if dense:
            return weight.data.transpose(0, 2, 3, 1).reshape(spec.out_channels, len(windows) * c)
        # tiled over N: each multiply-add runs over N*C blocks
        return np.tile(weight.data.reshape(c, len(windows)).T, (1, n)).reshape(-1, n, c)

    wt = _tap_weights()
    if dense:
        out_cl = (_columns() @ wt.T).reshape(oh, ow, n, spec.out_channels)
    else:
        out_cl = np.zeros((oh, ow, n, c), dtype=np.result_type(x.data, wt))
        for t, (o, i) in enumerate(windows):
            out_cl[o] += x_cl[i] * wt[t]
    if bias is not None:
        out_cl += bias.data

    parents = [x, weight] if bias is None else [x, weight, bias]

    def _bw(g):
        g_cl = g.transpose(2, 3, 0, 1)  # (oh, ow, N, O), contiguous as g is channels-last
        g2 = g_cl.reshape(oh * ow * n, spec.out_channels)  # the dense GEMM's output rows
        if weight.requires_grad:
            if dense:
                dw = (g2.T @ _columns()).reshape(spec.out_channels, *spec.kernel, c).transpose(0, 3, 1, 2)
            else:
                # C-contiguous channels-last operands keep einsum's float32 summation order
                xc, gc = np.ascontiguousarray(x_cl), np.ascontiguousarray(g_cl)
                dw = np.stack([np.einsum("ijnc,ijnc->c", xc[i], gc[o]) for o, i in windows], axis=1)
            _accum(weight, dw.reshape(weight.shape))
        if x.requires_grad:
            wt = _tap_weights()
            if dense:
                dcols = (g2 @ wt).reshape(oh, ow, n, len(windows), c)
            # scatter each tap's column gradient back into the input it read
            dx = np.zeros((h, w, n, c), dtype=np.result_type(wt, g))
            for t, (o, i) in enumerate(windows):
                dx[i] += dcols[o][..., t, :] if dense else g_cl[o] * wt[t]
            _accum(x, dx.transpose(2, 3, 0, 1))
        if bias is not None:
            # numpy adds in memory order: a C-ordered copy keeps NCHW float32 sums
            _accum(bias, np.ascontiguousarray(g).sum(axis=(0, 2, 3)))

    return _node(out_cl.transpose(2, 3, 0, 1), parents, "conv2d", _bw)


def conv1d(x, weight, bias):
    """Length-preserving 1-d convolution with a single shared kernel vector.

    Input is (B, C_seq, L); the same weight vector slides along every
    sequence.  The kernel size k is the weight's length, odd, and the
    padding is (k-1)/2.  Both einsums read the taps as a strided view of one
    position-major (L + k - 1, B, C_seq) padded copy, in its memory order;
    the backward builds that copy again rather than keep the forward's.
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

    def _taps():
        # built again by the backward, so the graph holds no padded copy
        xp = np.zeros((length + k - 1, b, cs), dtype=x.dtype)
        xp[padding : padding + length] = x.data.transpose(2, 0, 1)
        s0, s1, s2 = xp.strides
        return as_strided(xp, (b, cs, k, length), (s1, s2, s0, s0))  # tap j of output l: row l + j

    out_data = np.einsum("k,bckl->bcl", weight.data, _taps())
    if bias is not None:
        out_data += bias.data.reshape(-1)[0]

    parents = [x, weight] if bias is None else [x, weight, bias]

    def _bw(g):
        if weight.requires_grad:
            # einsum adds in the taps' position-major memory order; a C-ordered copy changes bits
            _accum(weight, np.einsum("bcl,bckl->k", g, _taps()))
        if x.requires_grad:
            dxp = np.zeros((b, cs, length + k - 1), dtype=x.dtype)
            for j in range(k):
                dxp[:, :, j : j + length] += weight.data[j] * g
            _accum(x, dxp[:, :, padding : padding + length])
        if bias is not None:
            _accum(bias, np.full(bias.shape, g.sum(), dtype=bias.dtype))

    return _node(out_data, parents, "conv1d", _bw)


# ---------------------------------------------------------------------------
# pooling


def _ranks(lo, hi):
    """Rank k pairs every a whose run [lo[a], hi[a]) has a k-th member with
    that member, lo[a] + k: (a index, member index), each a slice where its
    indices are consecutive."""
    ranks = []
    for k in range(int((hi - lo).max())):
        a = np.flatnonzero(hi - lo > k)
        ranks.append((_index(a), _index(lo[a] + k)))
    return tuple(ranks)


def _index(ix):
    """`ix`, as a slice if its entries are consecutive integers."""
    return slice(int(ix[0]), int(ix[-1]) + 1) if np.all(np.diff(ix) == 1) else ix


@lru_cache(maxsize=32)
def _axis_ranks(extent, out_extent):
    """One pooling axis: the bin sizes; each position's owner, the last bin
    covering it (so later bins win where bins overlap); and the rank maps
    of each bin's taps (bin, position), of each position's covering bins
    (position, bin) and of each bin's owned positions (bin, position).  Bin
    i covers [lo[i], hi[i]) = [floor(i*H/o), ceil((i+1)*H/o)); both ends rise
    with i, so a position's covering bins are a run, and bin i owns [lo[i],
    lo[i + 1])."""
    i, p = np.arange(out_extent), np.arange(extent)
    lo, hi = i * extent // out_extent, -(-(i + 1) * extent // out_extent)
    owner = np.searchsorted(lo, p, side="right") - 1
    covers = _ranks(np.searchsorted(hi, p, side="right"), owner + 1)
    return hi - lo, owner, _ranks(lo, hi), covers, _ranks(lo, np.append(lo[1:], extent))


def _rank_sum(src, out_hw, rows, cols):
    """Channels-last (oh, ow, N, C) sums from zero of out[a, b] += src[:, :,
    p, q], rank by rank in (row rank, column rank) order, so each output
    element adds its terms in rank order."""
    s = src.transpose(2, 3, 0, 1)
    out = np.zeros(tuple(out_hw) + s.shape[2:], dtype=s.dtype)
    for ra, rp in rows:
        for ca, cp in cols:
            out[_grid(ra, ca)] += s[_grid(rp, cp)]
    return out


def _grid(r, c):
    """Leading-axes index of the rows `r` x columns `c` grid."""
    if isinstance(r, np.ndarray) and isinstance(c, np.ndarray):
        return r[:, None], c[None, :]
    return r, c


def adaptive_avg_pool(x, out_hw):
    """Average-pool NCHW input to an (oh, ow) grid; (1, 1) is the global mean."""
    if x.data.ndim != 4:
        raise ValueError("adaptive_avg_pool expects NCHW input")
    n, c, h, w = x.shape
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if not (1 <= oh <= h and 1 <= ow <= w):
        raise ValueError(f"pool output {oh}x{ow} invalid for input {h}x{w}")
    row_sizes, _, row_taps, row_covers, _ = _axis_ranks(h, oh)
    col_sizes, _, col_taps, col_covers, _ = _axis_ranks(w, ow)
    area = np.outer(row_sizes, col_sizes).astype(x.dtype)
    if oh == ow == 1:
        # numpy adds in memory order: a C-ordered copy keeps NCHW float32 sums
        out_data = np.ascontiguousarray(x.data).mean(axis=(2, 3), keepdims=True)
    else:
        out_data = _rank_sum(x.data, (oh, ow), row_taps, col_taps).transpose(2, 3, 0, 1) / area

    def _bw(g):
        _accum(x, _rank_sum(g / area, (h, w), row_covers, col_covers).transpose(2, 3, 0, 1))

    return _node(out_data, [x], "adaptive_avg_pool", _bw)


def anti_pool(x, target_hw):
    """Replicate each pooled bin value over the region its pooling bin covered."""
    if x.data.ndim != 4:
        raise ValueError("anti_pool expects NCHW input")
    n, c, oh, ow = x.shape
    h, w = int(target_hw[0]), int(target_hw[1])
    if h < oh or w < ow:
        raise ValueError(f"anti_pool target {h}x{w} smaller than input {oh}x{ow}")
    _, owner_h, _, _, row_owned = _axis_ranks(h, oh)
    _, owner_w, _, _, col_owned = _axis_ranks(w, ow)

    def _bw(g):
        _accum(x, _rank_sum(g, (oh, ow), row_owned, col_owned).transpose(2, 3, 0, 1))

    out_cl = x.data.transpose(2, 3, 0, 1)[owner_h[:, None], owner_w[None, :]]
    return _node(out_cl.transpose(2, 3, 0, 1), [x], "anti_pool", _bw)


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
