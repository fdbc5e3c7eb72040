"""Independent slow-path oracles used to pin library behavior.

Everything here is written as plain loops over numpy scalars, sharing no
code with the library: direct convolutions, replication pooling,
straight-line attention blocks, a brute-force triplet miner, and a fully
enumerated retrieval scorer.
"""
import math

import numpy as np
from scipy.special import expit


def conv2d_oracle(x, w, b, stride=1, padding=0, dilation=1, groups=1):
    """Six-nested-loop 2-d convolution oracle, NCHW."""
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    if isinstance(padding, int):
        padding = ((padding, padding), (padding, padding))
    (pt, pb), (pl, pr) = padding
    xp = np.zeros((n, cin, h + pt + pb, wd + pl + pr), dtype=np.float64)
    xp[:, :, pt : pt + h, pl : pl + wd] = x
    oh = (h + pt + pb - dilation * (kh - 1) - 1) // stride + 1
    ow = (wd + pl + pr - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oc in range(cout):
            g = oc // (cout // groups)
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cin_g):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation
                                ix = ox * stride + kx * dilation
                                acc += xp[ni, g * cin_g + ic, iy, ix] * w[oc, ic, ky, kx]
                    out[ni, oc, oy, ox] = acc + (0.0 if b is None else b[oc])
    return out


def conv1d_oracle(x, w, b):
    """Direct-loop 1-d conv over the last axis, shared (k,) weight, zero pad."""
    n, c, length = x.shape
    k = len(w)
    pad = (k - 1) // 2
    out = np.zeros_like(x, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(length):
                acc = 0.0
                for j in range(k):
                    src = i + j - pad
                    if 0 <= src < length:
                        acc += x[ni, ci, src] * w[j]
                out[ni, ci, i] = acc + (0.0 if b is None else float(np.ravel(b)[0]))
    return out


def pool_bins(extent, bins):
    return [(math.floor(i * extent / bins), math.ceil((i + 1) * extent / bins)) for i in range(bins)]


def adaptive_pool_oracle(x, oh, ow):
    n, c, h, w = x.shape
    out = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i, (y0, y1) in enumerate(pool_bins(h, oh)):
        for j, (x0, x1) in enumerate(pool_bins(w, ow)):
            out[:, :, i, j] = x[:, :, y0:y1, x0:x1].mean(axis=(2, 3))
    return out


def anti_pool_oracle(x, h, w):
    """Replicate each bin value across its pooling region; on boundary
    overlap the later bin wins, matching one fixed owner convention."""
    n, c, oh, ow = x.shape
    out = np.zeros((n, c, h, w), dtype=np.float64)
    for i, (y0, y1) in enumerate(pool_bins(h, oh)):
        for j, (x0, x1) in enumerate(pool_bins(w, ow)):
            out[:, :, y0:y1, x0:x1] = x[:, :, i : i + 1, j : j + 1]
    return out


def gelu_oracle(x):
    from scipy.special import erf

    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def lka_oracle(x, params, kernel, dilation):
    """Straight-line large-kernel attention from oracle convolutions."""
    c = x.shape[1]
    dw = 2 * dilation - 1
    dd = math.ceil(kernel / dilation)

    def same_pad(k, d):
        span = d * (k - 1)
        return ((span // 2, span - span // 2),) * 2

    f1 = conv2d_oracle(gelu_oracle(x), params["proj_in.weight"], params["proj_in.bias"])
    a = conv2d_oracle(f1, params["dw.weight"], params["dw.bias"], padding=same_pad(dw, 1), groups=c)
    a = conv2d_oracle(
        a, params["dd.weight"], params["dd.bias"],
        padding=same_pad(dd, dilation), dilation=dilation, groups=c,
    )
    a = conv2d_oracle(a, params["attn.weight"], params["attn.bias"])
    out = conv2d_oracle(a * f1, params["proj_out.weight"], params["proj_out.bias"])
    return out + x


def hca_oracle(x, params, local_grid, conv1d_kernel):
    """Straight-line hybrid channel attention with loop pooling/conv."""
    n, c, h, w = x.shape
    ks = local_grid
    pooled = adaptive_pool_oracle(x, ks, ks)

    g = pooled.mean(axis=(2, 3))  # (N, C)
    g = conv1d_oracle(g[:, None, :], params["global.weight"], params["global.bias"])[:, 0, :]
    u_global = np.broadcast_to(g[:, :, None, None], (n, c, h, w))

    loc = np.zeros((n, c, ks, ks), dtype=np.float64)
    for i in range(ks):
        for j in range(ks):
            seq = pooled[:, :, i, j][:, None, :]  # (N, 1, C)
            loc[:, :, i, j] = conv1d_oracle(seq, params["local.weight"], params["local.bias"])[:, 0, :]
    u_local = anti_pool_oracle(loc, h, w)

    return x * expit(u_global + u_local)


def broadcast_oracle(a, b, op):
    """Broadcast by explicit tiling to the common shape, then apply op."""
    rank = max(a.ndim, b.ndim)
    sa = (1,) * (rank - a.ndim) + a.shape
    sb = (1,) * (rank - b.ndim) + b.shape
    target = tuple(max(x, y) for x, y in zip(sa, sb))

    def tile(arr, shape):
        arr = arr.reshape(shape)
        for axis, (have, want) in enumerate(zip(shape, target)):
            if have == 1 and want > 1:
                arr = np.concatenate([arr] * want, axis=axis)
        return arr

    return op(tile(a, sa), tile(b, sb))


def triplet_oracle(x, labels, margin):
    """Exhaustive batch-hard mining over all anchor/positive/negative pairs."""
    batch = len(labels)
    total = 0.0
    for i in range(batch):
        d_pos = max(
            float(np.linalg.norm(x[i] - x[j])) for j in range(batch) if labels[j] == labels[i]
        )
        d_neg = min(
            float(np.linalg.norm(x[i] - x[j])) for j in range(batch) if labels[j] != labels[i]
        )
        total += max(0.0, d_pos - d_neg + margin)
    return total / batch


def cosine_oracle(q, g):
    out = np.zeros((len(q), len(g)), dtype=np.float64)
    for i in range(len(q)):
        for j in range(len(g)):
            out[i, j] = float(np.dot(q[i], g[j]) / (np.linalg.norm(q[i]) * np.linalg.norm(g[j])))
    return out


def ap_oracle(relevance):
    hits, total = 0, 0.0
    for rank, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / rank
    return total / hits


def retrieval_oracle(q_feats, q_meta, g_feats, g_meta, max_rank=10):
    """Fully enumerated mAP/CMC: per query, junk-filter, rank by cosine
    with stable order, accumulate AP and first-hit ranks by hand.

    q_meta/g_meta are (vehicle_id, camera_id) pairs.
    """
    aps, first_hits, skipped = [], [], 0
    for qi in range(len(q_feats)):
        vid, cam = q_meta[qi]
        valid = [
            gi for gi in range(len(g_feats))
            if not (g_meta[gi][0] == vid and g_meta[gi][1] == cam)
        ]
        positives = [gi for gi in valid if g_meta[gi][0] == vid]
        if not positives:
            skipped += 1
            continue
        sims = [float(np.dot(q_feats[qi], g_feats[gi]) /
                      (np.linalg.norm(q_feats[qi]) * np.linalg.norm(g_feats[gi])))
                for gi in valid]
        order = sorted(range(len(valid)), key=lambda t: (-sims[t], t))
        relevance = [1 if g_meta[valid[t]][0] == vid else 0 for t in order]
        aps.append(ap_oracle(relevance))
        first_hits.append(relevance.index(1) + 1)
    cmc = [sum(1 for fh in first_hits if fh <= r) / len(first_hits) for r in range(1, max_rank + 1)]
    return sum(aps) / len(aps), cmc, skipped
