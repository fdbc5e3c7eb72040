"""Four-branch model: determinism, shapes, feature extraction, metadata
handling, cost consistency, and checkpoint round trips."""
import errno
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lkareid.attention import count_params_flops
from lkareid.model import (
    CheckpointError,
    ModelConfig,
    ModelState,
    build_model,
    extract_features,
    forward_train,
    load_checkpoint,
    model_params_flops,
    parameter_shapes,
    save_checkpoint,
)
from lkareid.tensor import Tensor
import lkareid.model as M

from conftest import rewrite_config_snapshot


def tiny_cfg(**kw):
    base = dict(
        num_identities=4,
        stem_widths=(4,),
        feature_dim=8,
        blocks_per_branch=1,
        lka_kernel=5,
        lka_dilation=2,
        hca_local_grid=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def rand_images(rng, batch=2, size=8):
    return rng.uniform(0.0, 1.0, (batch, 3, size, size)).astype(np.float32)


# ---------------------------------------------------------------------------
# construction


def test_build_model_deterministic():
    cfg = tiny_cfg()
    a = build_model(cfg, 3)
    b = build_model(cfg, 3)
    assert list(a.params) == list(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_build_model_seed_sensitivity():
    cfg = tiny_cfg()
    a = build_model(cfg, 0)
    b = build_model(cfg, 1)
    assert any(
        not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params
    )


def test_classifier_head_shapes():
    cfg = tiny_cfg(num_identities=10, feature_dim=128)
    state = build_model(cfg, 0)
    assert state.params["head_l1.weight"].shape == (10, 128)
    assert state.params["head_h1.weight"].shape == (10, 128)


def test_param_count_matches_cost_accounting():
    cfg = ModelConfig(num_identities=16)  # desk default
    state = build_model(cfg, 0)
    params, _ = model_params_flops(cfg, (1, 3, 48, 48))
    assert sum(p.size for p in state.params.values()) == params


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ModelConfig(num_identities=0)
    with pytest.raises(ValueError):
        ModelConfig(num_identities=4, stem_widths=())
    for bad in ({"num_cameras": 0}, {"lka_kernel": 4}, {"lka_dilation": 9}, {"hca_local_grid": 0}):
        with pytest.raises(ValueError):
            ModelConfig(num_identities=4, **bad)


# ---------------------------------------------------------------------------
# forward


def test_forward_train_output_shapes():
    cfg = tiny_cfg()
    state = build_model(cfg, 0)
    rng = np.random.default_rng(0)
    outs = forward_train(state, Tensor(rand_images(rng, batch=4)), np.zeros(4, int), np.zeros(4, int))
    assert [o.branch for o in outs] == ["l1", "l2", "h1", "h2"]
    for o in outs:
        assert o.embedding.shape == (4, cfg.feature_dim)
    assert outs[0].logits.shape == (4, cfg.num_identities)
    assert outs[1].logits is None
    assert outs[2].logits.shape == (4, cfg.num_identities)
    assert outs[3].logits is None


def test_forward_requires_batch_of_two():
    state = build_model(tiny_cfg(), 0)
    with pytest.raises(ValueError):
        forward_train(state, Tensor(np.zeros((1, 3, 8, 8))), [0], [0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forwards_reject_non_finite_pixels(bad):
    """A non-finite pixel is a defect of the input, not a numerical failure
    of the model."""
    state = build_model(tiny_cfg(), 0)
    images = rand_images(np.random.default_rng(8))
    images[1, 2, 3, 4] = bad
    with pytest.raises(ValueError, match="non-finite pixel"):
        forward_train(state, Tensor(images), np.zeros(2, int), np.zeros(2, int))
    with pytest.raises(ValueError, match="non-finite pixel"):
        extract_features(state, images)


def test_metadata_zero_init_equivalence():
    rng = np.random.default_rng(1)
    images = rand_images(rng, batch=3)
    cams, views = np.array([0, 1, 2]), np.array([0, 1, 0])
    off = build_model(tiny_cfg(metadata_embeddings_enabled=False), 0)
    on = build_model(tiny_cfg(metadata_embeddings_enabled=True), 0)
    outs_off = forward_train(off, Tensor(images), cams, views)
    outs_on = forward_train(on, Tensor(images), cams, views)
    for a, b in zip(outs_off, outs_on):
        np.testing.assert_array_equal(a.embedding.data, b.embedding.data)


def test_metadata_changes_train_but_not_inference():
    cfg = tiny_cfg(metadata_embeddings_enabled=True)
    state = build_model(cfg, 0)
    rng = np.random.default_rng(2)
    state.params["meta.camera"].data += rng.normal(0.0, 0.5, state.params["meta.camera"].shape)
    images = rand_images(rng, batch=2)
    a = forward_train(state, Tensor(images), np.array([0, 0]), np.array([0, 0]))
    b = forward_train(state, Tensor(images), np.array([1, 1]), np.array([0, 0]))
    assert not np.array_equal(a[0].embedding.data, b[0].embedding.data)
    np.testing.assert_array_equal(
        extract_features(state, images).data, extract_features(state, images).data
    )


def test_metadata_id_out_of_range():
    state = build_model(tiny_cfg(), 0)
    images = rand_images(np.random.default_rng(3))
    with pytest.raises(ValueError):
        forward_train(state, Tensor(images), np.array([0, 99]), np.array([0, 0]))


def test_forward_is_deterministic():
    state = build_model(tiny_cfg(), 0)
    images = rand_images(np.random.default_rng(4))
    np.testing.assert_array_equal(
        extract_features(state, images).data, extract_features(state, images).data
    )


def test_gradcheck_tiny_model():
    from lkareid.verify import gradcheck_model

    assert gradcheck_model(0) <= 1e-4


# ---------------------------------------------------------------------------
# extract_features


def test_extract_features_unit_rows_and_dim():
    cfg = tiny_cfg()
    state = build_model(cfg, 0)
    feats = extract_features(state, rand_images(np.random.default_rng(5), batch=3)).data
    assert feats.shape == (3, 4 * cfg.feature_dim)
    np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-6)


def test_extract_features_keeps_no_graph():
    """Nothing of an inference forward waits for the cycle collector."""
    state = build_model(tiny_cfg(), 0)
    out = extract_features(state, rand_images(np.random.default_rng(7), batch=2))
    assert not out.requires_grad and out._backward is None and out._prev == ()
    assert all(p.requires_grad for p in state.params.values())


def test_extract_features_batch_equivariance():
    state = build_model(tiny_cfg(), 0)
    images = rand_images(np.random.default_rng(6), batch=4)
    feats = extract_features(state, images).data
    perm = np.array([2, 0, 3, 1])
    np.testing.assert_allclose(extract_features(state, images[perm]).data, feats[perm], atol=1e-6)


def test_float32_forward_agrees_with_float64():
    """The float32 training and inference paths against the same
    parameters cast to float64.  Measured max abs differences are 7.9e-8
    on features and <= 4e-9 on embeddings and logits; 1e-5 leaves over
    100x margin for a change of float32 summation order."""
    state32 = build_model(ModelConfig(num_identities=16), 0)
    params64 = {k: Tensor(t.data.astype(np.float64), requires_grad=True) for k, t in state32.params.items()}
    state64 = ModelState(state32.config, params64)
    images = rand_images(np.random.default_rng(0), batch=16, size=48)
    feats32 = extract_features(state32, images).data
    feats64 = extract_features(state64, images.astype(np.float64)).data
    assert feats32.dtype == np.float32 and feats64.dtype == np.float64
    np.testing.assert_allclose(feats32, feats64, rtol=0, atol=1e-5)
    cams, views = np.arange(16) % 4, np.arange(16) % 2
    out32 = forward_train(state32, images, cams, views)
    out64 = forward_train(state64, images.astype(np.float64), cams, views)
    for a, b in zip(out32, out64):
        np.testing.assert_allclose(a.embedding.data, b.embedding.data, rtol=0, atol=1e-5)
        if a.logits is not None:
            np.testing.assert_allclose(a.logits.data, b.logits.data, rtol=0, atol=1e-5)
    assert sum(o.logits is not None for o in out32) == 2


def test_extract_features_matches_per_branch_composition():
    state = build_model(tiny_cfg(), 0)
    images = rand_images(np.random.default_rng(7), batch=2)
    feats = extract_features(state, images).data
    embs = M._branch_embeddings(state, images)
    joined = np.concatenate([embs[br].data for br in M.BRANCHES], axis=1)
    joined /= np.linalg.norm(joined, axis=1, keepdims=True)
    np.testing.assert_allclose(feats, joined, atol=1e-12)


def test_branches_are_pairwise_distinct():
    state = build_model(tiny_cfg(), 0)
    embs = M._branch_embeddings(state, rand_images(np.random.default_rng(8)))
    vals = [embs[br].data for br in M.BRANCHES]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.allclose(vals[i], vals[j])


def test_attention_disabled_changes_layout():
    on = parameter_shapes(tiny_cfg(attention_enabled=True))
    off = parameter_shapes(tiny_cfg(attention_enabled=False))
    assert len(off) < len(on)
    assert not any(".attn." in name for name, _, _ in off)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bytes(tmp_path):
    state = build_model(tiny_cfg(), 0)
    p1, p2 = tmp_path / "a.lkar", tmp_path / "b.lkar"
    save_checkpoint(state, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_features_bitwise_equal(tmp_path):
    state = build_model(tiny_cfg(), 0)
    images = rand_images(np.random.default_rng(10), batch=3)
    before = extract_features(state, images).data
    path = tmp_path / "m.lkar"
    save_checkpoint(state, path)
    after = extract_features(load_checkpoint(path), images).data
    np.testing.assert_array_equal(before, after)


def test_checkpoint_bad_magic(tmp_path):
    state = build_model(tiny_cfg(), 0)
    path = tmp_path / "m.lkar"
    save_checkpoint(state, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    state = build_model(tiny_cfg(), 0)
    path = tmp_path / "m.lkar"
    save_checkpoint(state, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    state = build_model(tiny_cfg(), 0)
    path = tmp_path / "m.lkar"
    save_checkpoint(state, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _small_checkpoint(path):
    cfg = ModelConfig(num_identities=2, stem_widths=(2,), feature_dim=2, blocks_per_branch=1,
                      attention_enabled=False)
    save_checkpoint(build_model(cfg, 0), path)
    return path.read_bytes()


def test_checkpoint_every_truncation_is_checkpoint_error(tmp_path):
    blob = _small_checkpoint(tmp_path / "m.lkar")
    mutant = tmp_path / "cut.lkar"
    for end in range(len(blob)):
        mutant.write_bytes(blob[:end])
        with pytest.raises(CheckpointError):
            load_checkpoint(mutant)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.lkar"
    return _small_checkpoint(path), path.with_name("mutant.lkar")


_FLIPS = {"zero": lambda b: 0x00, "ones": lambda b: 0xFF, "xor80": lambda b: b ^ 0x80}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data(), flip=st.sampled_from(sorted(_FLIPS)))
def test_checkpoint_byte_flip_loads_or_is_checkpoint_error(small_checkpoint, data, flip):
    blob, mutant = small_checkpoint
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    flipped = bytearray(blob)
    flipped[pos] = _FLIPS[flip](blob[pos])
    mutant.write_bytes(bytes(flipped))
    try:
        load_checkpoint(mutant)
    except CheckpointError:
        pass


class _FullDisk(io.FileIO):
    """A file whose write stops halfway with ENOSPC."""

    def write(self, data):
        super().write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EXDEV, "Invalid cross-device link")


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch, stage):
    path = tmp_path / "m.lkar"
    save_checkpoint(build_model(tiny_cfg(), 0), path)
    before = path.read_bytes()
    if stage == "write":
        monkeypatch.setattr(M, "open", _FullDisk, raising=False)
    else:
        monkeypatch.setattr(M.os, "replace", _fail_replace)
    with pytest.raises(OSError):
        save_checkpoint(build_model(tiny_cfg(), 1), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.lkar"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_value(tmp_path, value):
    state = build_model(tiny_cfg(), 0)
    state.params["stem.0.weight"].data[0, 0, 0, 0] = value
    path = tmp_path / "m.lkar"
    save_checkpoint(state, path)
    with pytest.raises(CheckpointError, match="stem.0.weight"):
        load_checkpoint(path)


BAD_SNAPSHOTS = {
    "missing_key": lambda d: d.pop("stem_widths"),
    "unknown_key": lambda d: d.update(extra=1),
    "wrong_type": lambda d: d.update(num_identities="4"),
    "even_kernel": lambda d: d.update(lka_kernel=4),
    "missing_default": lambda d: d.pop("metadata_embeddings_enabled"),
    # a snapshot written before the stem, view count and ECA settings were fixed
    "parent_era": lambda d: d.update(hca_b=2.0, hca_gamma=2.0, num_views=2, share_stem=True),
}


@pytest.mark.parametrize("case", sorted(BAD_SNAPSHOTS))
def test_checkpoint_bad_config_snapshot(tmp_path, case):
    path = tmp_path / "m.lkar"
    save_checkpoint(build_model(tiny_cfg(), 0), path)
    rewrite_config_snapshot(path, BAD_SNAPSHOTS[case])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# layout golden values: tensor count, cost, and checkpoint digest at seed 0


@pytest.mark.parametrize("cfg,shape,count,cost,digest", [
    (ModelConfig(num_identities=16), (1, 3, 48, 48), 128, (590216, 41334912),
     "43029c9caf5b8f2cbbf119988042d71c0c29af32c857edef55572cf05ce52ca4"),
    (tiny_cfg(), (1, 3, 8, 8), 52, (1280, 31976),
     "5c4a86cfc920073769c08be02dd286f91f53876404bd32721f96bac3144e42b9"),
    (tiny_cfg(attention_enabled=False), (1, 3, 8, 8), 24, (984, 22848),
     "a5586241ecb11b1a5669985b26dd2c1b712aa601ef8c3dcc4cd1c160dfad73e8"),
], ids=["desk", "tiny", "tiny_no_attention"])
def test_layout_golden(tmp_path, cfg, shape, count, cost, digest):
    path = tmp_path / "m.lkar"
    save_checkpoint(build_model(cfg, 0), path)
    assert len(parameter_shapes(cfg)) == count
    assert count_params_flops(cfg, shape) == cost
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
