"""Losses, PK batch sampling, a synthetic identity dataset, and the
toy-scale training loop.

Total loss per step is CE(L1) + CE(H1) + Triplet(L2) + Triplet(H2),
equally weighted, with batches built by PK sampling (P identities times
K instances).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import NUM_VIEWS, ModelConfig, forward_train
from .tensor import NumericsError, Tensor


class TrainingDivergence(NumericsError):
    """A parameter's new value or optimizer slot went non-finite during
    training."""


@dataclass
class TrainConfig:
    identities_per_batch: int = 4  # P
    instances_per_identity: int = 4  # K
    margin: float = 0.3
    lr: float = 0.01
    momentum: float = 0.9
    optimizer: str = "sgd"  # "sgd" (momentum) or "adam"
    steps: int = 400
    seed: int = 0
    grad_clip_norm: float = 5.0  # 0 disables clipping

    def __post_init__(self):
        if self.identities_per_batch < 2 or self.instances_per_identity < 1:
            raise ValueError("P must be >= 2 (the triplet loss needs two identities) and K >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("lr", "momentum", "margin", "grad_clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("lr", "margin", "grad_clip_norm"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class SyntheticDatasetSpec:
    num_identities: int = 16
    images_per_identity: int = 8
    num_cameras: int = ModelConfig.num_cameras
    image_size: int = 48
    seed: int = TrainConfig.seed

    def __post_init__(self):
        for name in ("num_identities", "images_per_identity", "num_cameras"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size < 2:  # a 1-pixel image leaves the identity pattern's patch no room
            raise ValueError(f"image_size must be >= 2, got {self.image_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthData:
    images: np.ndarray  # (N, 3, S, S) float32 in [0, 1]
    labels: np.ndarray
    cameras: np.ndarray
    views: np.ndarray

    def identity_index(self, positions=None):
        """label -> list of sample positions (all, or those given), for PK
        sampling."""
        index = {}
        for pos in range(len(self.labels)) if positions is None else positions:
            index.setdefault(int(self.labels[pos]), []).append(int(pos))
        return index


# ---------------------------------------------------------------------------
# losses


def cross_entropy_loss(logits, labels):
    """Mean negative log-softmax at the true class, max-stabilized."""
    z = logits.data
    if z.ndim != 2:
        raise ValueError("logits must be (B, N)")
    batch, n_cls = z.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError("labels must be (B,)")
    if labels.min() < 0 or labels.max() >= n_cls:
        raise ValueError("label out of range")
    m = z.max(axis=1, keepdims=True)
    zs = z - m
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    nll = -logp[np.arange(batch), labels]

    def _bw(g):
        dz = np.exp(logp)  # softmax, minus the one-hot target below
        dz[np.arange(batch), labels] -= 1.0
        T._accum(logits, float(g) * dz / batch)

    return T._node(np.asarray(nll.mean()), [logits], "cross_entropy", _bw)


def batch_hard_triplet_loss(embeddings, labels, margin=TrainConfig.margin):
    """Batch-hard mining: per anchor, farthest positive and nearest
    negative by Euclidean distance, hinged at the margin."""
    x = embeddings.data
    if x.ndim != 2:
        raise ValueError("embeddings must be (B, D)")
    batch = x.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError("labels must be (B,)")
    if np.unique(labels).size < 2:
        raise ValueError("triplet loss needs at least two identities in the batch")

    sq = (x * x).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    dist = np.sqrt(d2)
    same = labels[:, None] == labels[None, :]

    pos_idx = np.where(same, dist, -np.inf).argmax(axis=1)
    neg_idx = np.where(same, np.inf, dist).argmin(axis=1)
    d_pos = dist[np.arange(batch), pos_idx]
    d_neg = dist[np.arange(batch), neg_idx]
    viol = d_pos - d_neg + margin
    loss_val = np.maximum(viol, 0.0).mean()

    def _bw(g):
        g = float(g) / batch
        dx = np.zeros_like(x)
        eps = np.finfo(x.dtype).tiny
        for i in np.nonzero(viol > 0)[0]:
            p, nx = pos_idx[i], neg_idx[i]
            if dist[i, p] > eps:
                u = (x[i] - x[p]) / dist[i, p]
                dx[i] += g * u
                dx[p] -= g * u
            if dist[i, nx] > eps:
                v = (x[i] - x[nx]) / dist[i, nx]
                dx[i] -= g * v
                dx[nx] += g * v
        T._accum(embeddings, dx)

    return T._node(np.asarray(loss_val, dtype=x.dtype), [embeddings], "batch_hard_triplet", _bw)


# ---------------------------------------------------------------------------
# sampling


def pk_identities(index, p):
    """The sorted labels of `index`; a PK batch draws P of them."""
    if len(index) < p:
        raise ValueError(f"need at least {p} identities, have {len(index)}")
    return sorted(index)


def pk_sample(index, p, k_inst, rng):
    """Pick P distinct identities with K instances each; identities with
    fewer than K samples are drawn with replacement."""
    labels = pk_identities(index, p)
    chosen = rng.choice(len(labels), size=p, replace=False)
    batch = []
    for li in chosen:
        samples = index[labels[int(li)]]
        replace = len(samples) < k_inst
        picks = rng.choice(len(samples), size=k_inst, replace=replace)
        batch.extend(samples[int(j)] for j in picks)
    return batch


def pk_batch(data, index, cfg, rng):
    """One step's PK batch from `data`: (images, labels, camera_ids,
    view_ids) of `pk_sample`'s picks from `index`."""
    picks = pk_sample(index, cfg.identities_per_batch, cfg.instances_per_identity, rng)
    return data.images[picks], data.labels[picks], data.cameras[picks], data.views[picks]


# ---------------------------------------------------------------------------
# synthetic dataset


def _identity_pattern(spec, identity):
    """Per-identity base image: two-color stripes plus a colored patch."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 7, identity]))
    size = spec.image_size
    c1 = rng.uniform(0.05, 0.95, 3)
    c2 = rng.uniform(0.05, 0.95, 3)
    period = int(rng.integers(4, 9))
    phase = int(rng.integers(0, period))
    horizontal = bool(rng.integers(0, 2))
    coords = (np.arange(size) + phase) // period % 2
    mask = coords[:, None] if horizontal else coords[None, :]
    mask = np.broadcast_to(mask, (size, size))
    img = np.where(mask[None], c1[:, None, None], c2[:, None, None])
    c3 = rng.uniform(0.0, 1.0, 3)
    half = size // 2
    y0 = int(rng.integers(0, half))
    x0 = int(rng.integers(0, half))
    ph, pw = int(rng.integers(size // 6, half)), int(rng.integers(size // 6, half))
    img[:, y0 : y0 + ph, x0 : x0 + pw] = c3[:, None, None]
    return img


def _camera_transform(img, camera):
    """Deterministic per-camera nuisance: shift and brightness."""
    shifts = [(0, 0), (2, -1), (-2, 1), (1, 2), (-1, -2), (2, 2)]
    dy, dx = shifts[camera % len(shifts)]
    brightness = (camera % 5 - 2) * 0.04
    return np.roll(img, (dy, dx), axis=(1, 2)) + brightness


def synth_generate(spec):
    """The full dataset, fully determined by ``SyntheticDatasetSpec.seed``.

    Sample j of an identity is seen by camera j % num_cameras, in view
    (j // num_cameras) % NUM_VIEWS (view 1 mirrored), with mild noise
    from its own stream.  Memory: the (N, 3, S, S) float32 image array is
    allocated once and each image is cast into its slot, so at its peak
    this holds that array plus one image's float64 scratch.
    """
    per_identity = spec.images_per_identity
    n, size = spec.num_identities * per_identity, spec.image_size
    images = np.empty((n, 3, size, size), dtype=np.float32)
    pos = np.arange(n)
    j = pos % per_identity
    cameras = j % spec.num_cameras
    views = (j // spec.num_cameras) % NUM_VIEWS
    for identity in range(spec.num_identities):
        pattern = _identity_pattern(spec, identity)
        for camera in range(min(spec.num_cameras, per_identity)):
            seen = _camera_transform(pattern, camera)
            for index in range(camera, per_identity, spec.num_cameras):
                p = identity * per_identity + index
                slot = images[p] if views[p] == 0 else images[p, :, :, ::-1]
                rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 11, identity, index]))
                slot[...] = np.clip(seen + rng.normal(0.0, 0.02, seen.shape), 0.0, 1.0)
    return SynthData(images=images, labels=pos // per_identity, cameras=cameras, views=views)


def split_query_gallery(data, spec):
    """Held-out evaluation split.  Sample j of an identity, at camera
    j % num_cameras and view (j // num_cameras) % NUM_VIEWS, is the query if
    j = 0, gallery if j >= num_cameras and its camera is not 0, else train."""
    pos = np.arange(spec.num_identities * spec.images_per_identity)
    j = pos % spec.images_per_identity
    query = j == 0
    gallery = (j >= spec.num_cameras) & (data.cameras[pos] != 0)
    return np.flatnonzero(~query & ~gallery), np.flatnonzero(query), np.flatnonzero(gallery)


# ---------------------------------------------------------------------------
# optimizer and training loop


class Optimizer:
    """Momentum SGD or Adam over a named parameter dict.  Every slot (SGD's
    velocity `v`, Adam's moments `m` and `v`) starts at zero."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        slots = ("v",) if cfg.optimizer == "sgd" else ("m", "v")
        self.slots = {name: {k: np.zeros_like(p.data) for k in slots} for name, p in params.items()}
        self.t = 0

    def step(self):
        """Update every parameter that has a gradient.

        All new values and slots are computed first.  If any is not finite
        (a NaN or Inf gradient always reaches a slot), TrainingDivergence
        names its parameter and the parameters, slots and step count stay.
        """
        t = self.t + 1
        pending = []
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            slot = self.slots[name]
            if self.cfg.optimizer == "sgd":
                slot = {"v": self.cfg.momentum * slot["v"] + g}
                update = self.cfg.lr * slot["v"]
            else:  # adam
                b1, b2, eps = 0.9, 0.999, 1e-8
                m, v = slot["m"] * b1 + (1 - b1) * g, slot["v"] * b2 + (1 - b2) * g * g
                slot = {"m": m, "v": v}
                update = self.cfg.lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            new = p.data - update.astype(p.dtype, copy=False)
            if not all(np.isfinite(a).all() for a in (new, *slot.values())):
                raise TrainingDivergence(f"non-finite update of parameter {name}")
            pending.append((name, p, new, slot))
        for name, p, new, slot in pending:
            p.data[...] = new
            self.slots[name] = slot
        self.t = t

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def clip_grad_norm(params, max_norm):
    """Scale all gradients down so their joint L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    grads = [p.grad for p in params.values() if p.grad is not None]
    squares = [float((g.astype(np.float64) ** 2).sum()) for g in grads]
    norm = math.sqrt(functools.reduce(float.__add__, squares, 0.0))  # in order; sum() compensates on 3.12+
    if max_norm and norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def step_losses(state, batch, cfg):
    """One training step's forward and branch losses on a PK batch.

    `batch` is (images, labels, camera_ids, view_ids).  Returns the total
    loss and the losses by name: cross-entropy on each branch with a
    classifier head, in branch order, then batch-hard triplet on the
    others, added left to right into the total.
    """
    images, labels, cameras, views = batch
    outputs = forward_train(state, Tensor(images), cameras, views)
    losses = {}
    for o in sorted(outputs, key=lambda o: o.logits is None):
        if o.logits is not None:
            losses[f"ce_{o.branch}"] = cross_entropy_loss(o.logits, labels)
        else:
            losses[f"tri_{o.branch}"] = batch_hard_triplet_loss(o.embedding, labels, cfg.margin)
    return functools.reduce(T.add, losses.values()), losses


def train_step(state, batch, cfg, opt):
    """`step_losses` on a PK batch, then backward, gradient clipping and an
    update with the run's Optimizer.  Returns the state and the four loss
    components plus their total; a step that raises NumericsError changes
    no parameter.
    """
    total, losses = step_losses(state, batch, cfg)
    opt.zero_grad()
    T.backward(total)
    clip_grad_norm(state.params, cfg.grad_clip_norm)
    opt.step()
    return state, {"total": total.item(), **{name: loss.item() for name, loss in losses.items()}}


def fit(state, data, cfg, sample_positions=None, log_fn=None):
    """Run cfg.steps PK-sampled training steps; returns the log records.

    `sample_positions` restricts sampling to a subset of the dataset (the
    training split).  Each record is JSON-serializable, one per step.
    """
    index = data.identity_index(sample_positions)
    rng = np.random.default_rng(cfg.seed)
    opt = Optimizer(state.params, cfg)
    records = []
    for step in range(cfg.steps):
        _, components = train_step(state, pk_batch(data, index, cfg, rng), cfg, opt)
        record = {"step": step, **components}
        records.append(record)
        if log_fn is not None:
            log_fn(record)
    return records
