"""The four-branch re-ID network: shared stem, two large-kernel-attention
branches, two hybrid-channel-attention branches, feature heads, and a
self-describing binary checkpoint format.

Branches L1/H1 carry identity classifiers (cross-entropy), L2/H2 feed the
triplet loss.  At inference the four embeddings are concatenated in the
fixed order L1 | L2 | H1 | H2 and L2-normalized per row.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import struct
import uuid
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .attention import (
    _ZEROS,
    HcaConfig,
    LkaConfig,
    _weight_bias,
    count_params_flops,
    hca_forward,
    hca_param_shapes,
    init_params,
    lka_forward,
    lka_param_shapes,
    param_count,
)
from .tensor import Conv2dSpec, Tensor

BRANCHES = ("l1", "l2", "h1", "h2")
NUM_VIEWS = 2  # view 0 as seen, view 1 mirrored
_LKA_BRANCHES = ("l1", "l2")
_CLS_BRANCHES = ("l1", "h1")

_MAGIC = b"LKAR"
_VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated, or inconsistent checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    num_identities: int
    stem_widths: tuple = (16, 32, 64)
    feature_dim: int = 128
    blocks_per_branch: int = 3
    lka_kernel: int = LkaConfig.kernel
    lka_dilation: int = LkaConfig.dilation
    hca_local_grid: int = HcaConfig.local_grid
    num_cameras: int = 4
    metadata_embeddings_enabled: bool = False
    attention_enabled: bool = True

    def __post_init__(self):
        for name in ("num_identities", "feature_dim", "blocks_per_branch", "num_cameras"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.stem_widths or any(wd < 1 for wd in self.stem_widths):
            raise ValueError(f"invalid stem widths {self.stem_widths}")
        object.__setattr__(self, "stem_widths", tuple(int(wd) for wd in self.stem_widths))
        self.lka_config()  # validates the attention settings
        self.hca_config()

    @property
    def branch_channels(self):
        return self.stem_widths[-1]

    def lka_config(self):
        return LkaConfig(self.branch_channels, self.lka_kernel, self.lka_dilation)

    def hca_config(self):
        return HcaConfig(self.branch_channels, self.hca_local_grid)


@dataclass
class ModelState:
    """Ordered named-parameter store plus the config that shaped it."""

    config: ModelConfig
    params: dict  # name -> Tensor, insertion-ordered


@dataclass
class BranchOutput:
    branch: str
    embedding: Tensor  # (B, D)
    logits: Tensor | None = None  # (B, num_identities), classification branches only


# ---------------------------------------------------------------------------
# layer plan


@dataclass(frozen=True)
class Layer:
    """One step of the network.  `op` says what it computes from `spec`:

    conv    convolution by a Conv2dSpec, then GELU
    lka     large-kernel attention block (LkaConfig)
    hca     hybrid channel attention block (HcaConfig)
    gap     global average pool to (B, C); no spec, no parameters
    linear  x @ weight.T + bias, spec the (out, in) weight shape
    table   the metadata embedding tables, looked up by forward_train

    Its parameters are `{name}.{suffix}` for each (suffix, shape, init) of
    `params`.
    """

    op: str
    name: str
    spec: object = None
    params: tuple = ()


@dataclass(frozen=True)
class LayerPlan:
    """The whole network as ordered layers; parameters are created in the
    order `layers()` yields them."""

    stem: tuple  # conv layers shared by every branch
    branches: tuple  # (branch, layers) in BRANCHES order
    heads: dict  # branch -> linear layer, for the classification branches
    meta: Layer

    def layers(self):
        yield from self.stem
        for _, layers in self.branches:
            yield from layers
        yield from self.heads.values()
        yield self.meta


def _conv(name, spec):
    return Layer("conv", name, spec, tuple(_weight_bias(spec.weight_shape())))


def _linear(name, out_features, in_features):
    shape = (out_features, in_features)
    return Layer("linear", name, shape, tuple(_weight_bias(shape)))


@lru_cache(maxsize=8)
def layer_plan(cfg):
    """Build the topology once from the config: a strided-conv stem; per
    branch the trunk blocks (3x3 conv, then LKA or HCA attention when
    enabled), GAP and the projection; identity heads on L1/H1; and the
    metadata tables, which always exist (zero-init) and are used only when
    enabled."""
    c = cfg.branch_channels
    widths = (3,) + cfg.stem_widths
    stem = tuple(
        _conv(f"stem.{i}", Conv2dSpec(widths[i], widths[i + 1], (3, 3), stride=2, padding=1))
        for i in range(len(cfg.stem_widths))
    )
    trunk = Conv2dSpec(c, c, (3, 3), stride=1, padding=1)
    lka_cfg, hca_cfg = cfg.lka_config(), cfg.hca_config()
    lka = ("lka", lka_cfg, tuple(lka_param_shapes(lka_cfg)))
    hca = ("hca", hca_cfg, tuple(hca_param_shapes(hca_cfg)))
    branches = []
    for br in BRANCHES:
        op, attn_cfg, attn_params = lka if br in _LKA_BRANCHES else hca
        layers = []
        for blk in range(cfg.blocks_per_branch):
            base = f"branch_{br}.block{blk}"
            layers.append(_conv(f"{base}.conv", trunk))
            if cfg.attention_enabled:
                layers.append(Layer(op, f"{base}.attn", attn_cfg, attn_params))
        layers += [Layer("gap", f"branch_{br}.gap"), _linear(f"branch_{br}.proj", cfg.feature_dim, c)]
        branches.append((br, tuple(layers)))
    heads = {br: _linear(f"head_{br}", cfg.num_identities, cfg.feature_dim) for br in _CLS_BRANCHES}
    meta = Layer("table", "meta", None, (
        ("camera", (cfg.num_cameras, cfg.feature_dim), _ZEROS),
        ("view", (NUM_VIEWS, cfg.feature_dim), _ZEROS),
    ))
    return LayerPlan(stem, tuple(branches), heads, meta)


def parameter_shapes(cfg):
    """Every parameter of the model, in creation order: (name, shape, init)."""
    return [
        (f"{layer.name}.{suffix}", shape, init)
        for layer in layer_plan(cfg).layers()
        for suffix, shape, init in layer.params
    ]


def build_model(cfg, seed, dtype=np.float32):
    """Deterministic init: LeCun-uniform weights (unit fan-in variance
    scaling), zero biases and embedding tables."""
    params = init_params(parameter_shapes(cfg), np.random.default_rng(seed), dtype=dtype)
    return ModelState(config=cfg, params=params)


# ---------------------------------------------------------------------------
# forward


def _layer_params(state, layer):
    return {suffix: state.params[f"{layer.name}.{suffix}"] for suffix, _, _ in layer.params}


def _run(state, layers, x):
    """Apply layers in order.  The attention and conv functions are looked
    up by module-level name on every call, so wrapping them takes effect."""
    for layer in layers:
        p = _layer_params(state, layer)
        if layer.op == "conv":
            x = T.gelu(T.conv2d(x, p["weight"], p["bias"], layer.spec))
        elif layer.op == "lka":
            x = lka_forward(x, p, layer.spec)
        elif layer.op == "hca":
            x = hca_forward(x, p, layer.spec)
        elif layer.op == "gap":
            x = T.reshape(T.adaptive_avg_pool(x, (1, 1)), (x.shape[0], x.shape[1]))
        else:  # linear
            x = T.add(T.matmul(x, T.transpose(p["weight"], (1, 0))), p["bias"])
    return x


def _branch_embeddings(state, images):
    if not isinstance(images, Tensor) and np.asarray(images).dtype.kind not in "biuf":  # a cast drops imaginary parts
        raise ValueError(f"images must be real numbers, got dtype {np.asarray(images).dtype}")
    x = images if isinstance(images, Tensor) else Tensor(images)
    if x.data.ndim != 4 or x.shape[1] != 3:
        raise ValueError("images must be (B, 3, H, W)")
    if not np.isfinite(x.data).all():
        raise ValueError("images have non-finite pixel values")
    # center [0, 1] pixel intensities to [-1, 1]
    x = T.add(T.mul(x, 2.0), -1.0)
    plan = layer_plan(state.config)
    x = _run(state, plan.stem, x)
    return {br: _run(state, layers, x) for br, layers in plan.branches}


def _ids(kind, ids, batch, count):
    """`ids` as an array, checked to hold one integer id in [0, count) per
    image, whether or not the metadata tables use them."""
    ids = np.asarray(ids)
    if ids.shape != (batch,) or not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(
            f"{kind}_ids must be a 1-d integer array with one id per image ({batch}), "
            f"got {ids.dtype} of shape {ids.shape}"
        )
    if ids.min() < 0 or ids.max() >= count:
        raise ValueError(f"{kind}_ids holds a {kind} id out of range [0, {count})")
    return ids


def forward_train(state, images, camera_ids, view_ids):
    """Training-mode forward: four BranchOutputs, logits on L1/H1 only."""
    cfg = state.config
    batch = images.shape[0]
    if batch < 2:
        raise ValueError("training forward requires batch size >= 2")
    camera_ids = _ids("camera", camera_ids, batch, cfg.num_cameras)
    view_ids = _ids("view", view_ids, batch, NUM_VIEWS)

    plan = layer_plan(cfg)
    embeddings = _branch_embeddings(state, images)
    meta = None
    if cfg.metadata_embeddings_enabled:
        tables = _layer_params(state, plan.meta)
        meta = T.add(
            T.gather_rows(tables["camera"], camera_ids),
            T.gather_rows(tables["view"], view_ids),
        )
    outputs = []
    for br in BRANCHES:
        emb = embeddings[br]
        if meta is not None:
            emb = T.add(emb, meta)
        logits = _run(state, (plan.heads[br],), emb) if br in plan.heads else None
        outputs.append(BranchOutput(branch=br, embedding=emb, logits=logits))
    return outputs


def extract_features(state, images):
    """Inference features: L1 | L2 | H1 | H2 concatenation, L2-normalized
    per row.  Metadata never enters this path.  The forward runs on views of
    the parameters that need no gradient, so it builds and keeps no graph."""
    frozen = ModelState(state.config, {name: Tensor(p.data) for name, p in state.params.items()})
    embeddings = _branch_embeddings(frozen, images)
    joined = T.concat([embeddings[br] for br in BRANCHES], axis=1)
    return T.l2_normalize(joined, axis=1)


# ---------------------------------------------------------------------------
# cost accounting


def _layers_flops(layers, shape):
    """2*MAC FLOPs of running layers from an (N, C, H, W) input, and the
    output shape; each conv adds one flop per output element for its GELU."""
    flops = 0
    for layer in layers:
        n, c, h, w = shape
        if layer.op == "conv":
            oh, ow = layer.spec.out_size(h, w)
            flops += layer.spec.flops(h, w, n) + layer.spec.out_channels * oh * ow * n
            shape = (n, layer.spec.out_channels, oh, ow)
        elif layer.op in ("lka", "hca"):
            flops += count_params_flops(layer.spec, shape)[1]
        elif layer.op == "gap":
            flops += n * c * h * w
            shape = (n, c, 1, 1)
        else:  # linear
            out_features, in_features = layer.spec
            flops += 2 * out_features * in_features * n
            shape = (n, out_features, 1, 1)
    return flops, shape


@count_params_flops.register(ModelConfig)
def model_params_flops(cfg, input_shape):
    """Exact parameter count plus 2*MAC FLOPs for one forward pass."""
    if input_shape[1] != 3:
        raise ValueError("model input must have 3 channels")
    plan = layer_plan(cfg)
    flops, stem_out = _layers_flops(plan.stem, input_shape)
    for br, layers in plan.branches:
        branch_flops, emb_shape = _layers_flops(layers, stem_out)
        flops += branch_flops
        if br in plan.heads:
            flops += _layers_flops((plan.heads[br],), emb_shape)[0]
    return param_count(parameter_shapes(cfg)), flops


# ---------------------------------------------------------------------------
# checkpoint I/O


def _config_to_json(cfg):
    return json.dumps(dataclasses.asdict(cfg), sort_keys=True)


def _config_and_layout(raw):
    """The ModelConfig of a config snapshot and its parameter layout.  The
    snapshot must name every ModelConfig field and nothing else; any defect
    is a CheckpointError."""
    try:
        d = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"config snapshot is not UTF-8 JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise CheckpointError("config snapshot is not a JSON object")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    missing, unknown = sorted(fields - d.keys()), sorted(d.keys() - fields)
    if missing or unknown:
        raise CheckpointError(f"config snapshot keys: missing {missing}, unknown {unknown}")
    try:
        cfg = ModelConfig(**{**d, "stem_widths": tuple(d["stem_widths"])})
        return cfg, parameter_shapes(cfg)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid config snapshot: {exc}") from exc


def save_checkpoint(state, path):
    """Self-describing binary format: magic, version, config snapshot, then
    a named tensor table with little-endian float32 values."""
    blob = bytearray()
    blob += _MAGIC
    blob += struct.pack("<H", _VERSION)
    cfg_bytes = _config_to_json(state.config).encode("utf-8")
    blob += struct.pack("<I", len(cfg_bytes))
    blob += cfg_bytes
    blob += struct.pack("<I", len(state.params))
    for name, tensor in state.params.items():
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<H", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<B", tensor.data.ndim)
        for dim in tensor.data.shape:
            blob += struct.pack("<I", dim)
        blob += np.ascontiguousarray(tensor.data, dtype="<f4").tobytes()
    write_atomic(path, blob)


def write_atomic(path, data):
    """Write bytes beside `path` and rename them over it, so a failed or
    interrupted write leaves any previous file at `path` whole."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        chunk = view[pos : pos + n]
        pos += n
        return chunk

    if bytes(take(4, "magic")) != _MAGIC:
        raise CheckpointError("bad magic bytes, not a checkpoint file")
    (version,) = struct.unpack("<H", take(2, "version"))
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    cfg, expected = _config_and_layout(bytes(take(cfg_len, "config")))
    (count,) = struct.unpack("<I", take(4, "tensor count"))
    if count != len(expected):
        raise CheckpointError(f"checkpoint lists {count} tensors, config expects {len(expected)}")
    params = {}
    for exp_name, exp_shape, _ in expected:
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = bytes(take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}") from exc
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        shape = tuple(struct.unpack("<I", take(4, "dim"))[0] for _ in range(ndim))
        if name != exp_name or shape != tuple(exp_shape):
            raise CheckpointError(
                f"tensor {name} with shape {shape} does not match config "
                f"({exp_name}, {tuple(exp_shape)})"
            )
        n_items = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * n_items, name), dtype="<f4").reshape(shape)
        if not np.all(np.isfinite(data)):
            raise CheckpointError(f"tensor {name} has non-finite values")
        params[name] = Tensor(data.astype(np.float32), requires_grad=True)
    if pos != len(blob):
        raise CheckpointError("trailing bytes after tensor table")
    return ModelState(config=cfg, params=params)
