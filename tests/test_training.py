"""Losses against closed forms and brute-force oracles, PK sampling,
synthetic data properties, and training-loop sanity."""
import math
import tracemalloc

import numpy as np
import pytest

from lkareid.model import ModelConfig, build_model
from lkareid.tensor import Tensor, backward, gradient_check
from lkareid.training import (
    Optimizer,
    TrainingDivergence,
    SyntheticDatasetSpec,
    TrainConfig,
    batch_hard_triplet_loss,
    clip_grad_norm,
    cross_entropy_loss,
    fit,
    pk_batch,
    pk_sample,
    split_query_gallery,
    synth_generate,
    train_step,
)

import criterion7
from oracles import synth_generate_oracle, triplet_oracle


def tiny_model():
    cfg = ModelConfig(
        num_identities=16,
        stem_widths=(4,),
        feature_dim=8,
        blocks_per_branch=1,
        lka_kernel=5,
        lka_dilation=2,
        hca_local_grid=3,
    )
    return build_model(cfg, 0)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    for n in (2, 5, 10):
        loss = cross_entropy_loss(Tensor(np.zeros((3, n))), np.zeros(3, int))
        assert loss.item() == pytest.approx(math.log(n), abs=1e-12)


def test_cross_entropy_confident_logits():
    loss = cross_entropy_loss(Tensor(np.array([[10.0, -10.0]])), np.array([0]))
    assert loss.item() == pytest.approx(-math.log(1.0 / (1.0 + math.exp(-20.0))), rel=1e-6)
    assert loss.item() == pytest.approx(2.06e-9, rel=1e-2)


def test_cross_entropy_nonnegative_and_zero_limit():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = Tensor(rng.normal(0.0, 3.0, (4, 6)))
        labels = rng.integers(0, 6, 4)
        assert cross_entropy_loss(z, labels).item() >= 0.0
    # one-hot-logit limit
    huge = np.full((2, 3), -1e4)
    huge[:, 1] = 1e4
    assert cross_entropy_loss(Tensor(huge), np.array([1, 1])).item() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_cross_entropy_gradient(seed):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.normal(0.0, 2.0, (5, 4)))
    labels = rng.integers(0, 4, 5)
    err = gradient_check(lambda t: cross_entropy_loss(t, labels), [z])
    assert err <= 1e-6


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError):
        cross_entropy_loss(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# triplet loss


def test_triplet_well_separated_clusters():
    x = Tensor(np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0], [10.0, 0.0]]))
    labels = np.array([0, 0, 1, 1])
    assert batch_hard_triplet_loss(x, labels, 0.3).item() == 0.0


def test_triplet_identical_embeddings():
    x = Tensor(np.ones((4, 3)))
    labels = np.array([0, 0, 1, 1])
    assert batch_hard_triplet_loss(x, labels, 0.3).item() == pytest.approx(0.3)


def test_triplet_matches_brute_force_miner():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 3.0], [2.0, 0.5]])
    labels = np.array([0, 0, 1, 1])
    got = batch_hard_triplet_loss(Tensor(x), labels, 0.3).item()
    assert got == pytest.approx(triplet_oracle(x, labels, 0.3), abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_triplet_matches_oracle_random(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(8, 5))
    labels = np.repeat(np.arange(4), 2)
    got = batch_hard_triplet_loss(Tensor(x), labels, 0.3).item()
    assert got == pytest.approx(triplet_oracle(x, labels, 0.3), abs=1e-10)


def test_triplet_translation_and_rotation_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    labels = np.array([0, 0, 1, 1, 2, 2])
    base = batch_hard_triplet_loss(Tensor(x), labels, 0.3).item()
    shifted = batch_hard_triplet_loss(Tensor(x + 3.7), labels, 0.3).item()
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    rotated = batch_hard_triplet_loss(Tensor(x @ q), labels, 0.3).item()
    assert shifted == pytest.approx(base, abs=1e-10)
    assert rotated == pytest.approx(base, abs=1e-10)


def test_triplet_single_identity_rejected():
    with pytest.raises(ValueError):
        batch_hard_triplet_loss(Tensor(np.zeros((4, 2))), np.zeros(4, int), 0.3)


@pytest.mark.parametrize("seed", range(5))
def test_triplet_gradient(seed):
    rng = np.random.default_rng(10 + seed)
    x = Tensor(rng.normal(size=(8, 4)))
    labels = np.repeat(np.arange(4), 2)
    assert gradient_check(lambda t: batch_hard_triplet_loss(t, labels, 0.3), [x]) <= 1e-4


# ---------------------------------------------------------------------------
# pk sampling


def test_pk_sample_default_batch():
    index = {i: list(range(i * 10, i * 10 + 10)) for i in range(8)}
    rng = np.random.default_rng(0)
    batch = pk_sample(index, 6, 8, rng)
    assert len(batch) == 48


def test_pk_sample_single():
    batch = pk_sample({0: [5]}, 1, 1, np.random.default_rng(0))
    assert batch == [5]


def test_pk_sample_replacement_policy():
    index = {0: [1, 2, 3], 1: [4, 5, 6, 7]}
    batch = pk_sample(index, 2, 8, np.random.default_rng(0))
    assert len(batch) == 16
    first = [b for b in batch if b in (1, 2, 3)]
    assert len(first) == 8  # all 8 draws from the 3-sample identity


def test_pk_sample_structure_property():
    index = {i: list(range(i * 8, i * 8 + 8)) for i in range(16)}
    labels = {s: i for i in index for s in index[i]}
    rng = np.random.default_rng(1)
    for _ in range(50):
        batch = pk_sample(index, 6, 8, rng)
        got = [labels[s] for s in batch]
        uniq, counts = np.unique(got, return_counts=True)
        assert len(uniq) == 6 and all(c == 8 for c in counts)


def test_pk_sample_too_few_identities():
    with pytest.raises(ValueError):
        pk_sample({0: [1]}, 2, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# synthetic data


def test_synth_deterministic():
    spec = SyntheticDatasetSpec(num_identities=4, images_per_identity=4, seed=3)
    a = synth_generate(spec)
    b = synth_generate(spec)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"num_identities": 5, "images_per_identity": 3, "num_cameras": 6, "image_size": 20},
        {"num_identities": 3, "images_per_identity": 9, "image_size": 2},
        {"num_identities": 1, "images_per_identity": 7, "num_cameras": 3, "image_size": 16, "seed": 4},
        {"num_identities": 2, "images_per_identity": 15, "num_cameras": 7, "image_size": 12},
    ],
    ids=["default", "more-cameras-than-images", "2x2", "one-identity", "every-shift"],
)
def test_synth_generate_matches_the_per_image_oracle(kwargs):
    spec = SyntheticDatasetSpec(**kwargs)
    data = synth_generate(spec)
    for got, want in zip((data.images, data.labels, data.cameras, data.views), synth_generate_oracle(spec)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_synth_generate_peaks_at_its_images_plus_one_image_of_scratch():
    """One float32 array of the dataset's size is allocated and filled in
    place; a list of per-image copies stacked at the end peaks at about
    twice that."""
    spec = SyntheticDatasetSpec(num_identities=64, images_per_identity=8, image_size=48)
    tracemalloc.start()
    try:
        data = synth_generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.images.flags.c_contiguous
    assert peak <= data.images.nbytes + 2**20


def test_synth_counts_and_balance():
    spec = SyntheticDatasetSpec(num_identities=16, images_per_identity=8)
    data = synth_generate(spec)
    assert data.images.shape == (128, 3, 48, 48)
    uniq, counts = np.unique(data.labels, return_counts=True)
    assert len(uniq) == 16 and all(c == 8 for c in counts)
    assert data.images.min() >= 0.0 and data.images.max() <= 1.0


def test_synth_identity_separation():
    spec = SyntheticDatasetSpec(num_identities=6, images_per_identity=6, image_size=32)
    data = synth_generate(spec)
    within, across = [], []
    for i in range(len(data.labels)):
        for j in range(i + 1, len(data.labels)):
            d = float(np.abs(data.images[i] - data.images[j]).mean())
            (within if data.labels[i] == data.labels[j] else across).append(d)
    assert np.mean(across) > np.mean(within)


def test_split_query_gallery_disjoint_and_crosscamera():
    spec = SyntheticDatasetSpec()
    data = synth_generate(spec)
    train, query, gallery = split_query_gallery(data, spec)
    all_idx = np.concatenate([train, query, gallery])
    assert len(np.unique(all_idx)) == len(all_idx) == len(data.labels)
    # every query has a cross-camera positive in the gallery
    for qi in query:
        assert any(
            data.labels[gi] == data.labels[qi] and data.cameras[gi] != data.cameras[qi]
            for gi in gallery
        )


@pytest.mark.parametrize("per_id, cams", [(4, 4), (1, 4), (8, 3), (7, 2)])
def test_split_query_gallery_follows_its_rule_with_integer_arrays(per_id, cams):
    """(4, 4) has no gallery and (1, 4) neither train nor gallery: an empty
    split must still index the images."""
    spec = SyntheticDatasetSpec(num_identities=4, images_per_identity=per_id, num_cameras=cams, image_size=16)
    data = synth_generate(spec)
    expected = ([], [], [])  # train, query, gallery
    for pos in range(len(data.labels)):
        j = pos % per_id
        expected[1 if j == 0 else 2 if j >= cams and data.cameras[pos] != 0 else 0].append(pos)
    for split, want in zip(split_query_gallery(data, spec), expected):
        assert split.dtype.kind == "i" and split.tolist() == want
        assert data.images[split].shape == (len(want), 3, 16, 16)


def test_pk_batch_gathers_the_pk_sample_picks():
    data = synth_generate(SyntheticDatasetSpec(num_identities=4, images_per_identity=4, image_size=16))
    index = data.identity_index()
    cfg = TrainConfig(identities_per_batch=2, instances_per_identity=3)
    picks = pk_sample(index, 2, 3, np.random.default_rng(5))
    batch = pk_batch(data, index, cfg, np.random.default_rng(5))
    assert len(batch) == 4
    for got, array in zip(batch, (data.images, data.labels, data.cameras, data.views)):
        np.testing.assert_array_equal(got, array[picks])


def test_default_k_draws_the_training_split_without_replacement():
    spec = SyntheticDatasetSpec()
    data = synth_generate(spec)
    train, _, _ = split_query_gallery(data, spec)
    sizes = {len(v) for v in data.identity_index(train).values()}
    assert sizes == {TrainConfig().instances_per_identity}


def test_identity_index_of_positions():
    data = synth_generate(SyntheticDatasetSpec(num_identities=3, images_per_identity=4, image_size=16))
    assert data.identity_index() == {0: [0, 1, 2, 3], 1: [4, 5, 6, 7], 2: [8, 9, 10, 11]}
    index = data.identity_index(np.array([9, 1, 0, 8]))
    assert index == {2: [9, 8], 0: [1, 0]}
    assert all(type(pos) is int for positions in index.values() for pos in positions)


# ---------------------------------------------------------------------------
# train_step / fit


def test_train_step_zero_lr_keeps_state():
    data = synth_generate(SyntheticDatasetSpec())
    state = tiny_model()
    before = {n: p.data.copy() for n, p in state.params.items()}
    cfg = TrainConfig(identities_per_batch=2, instances_per_identity=4, lr=0.0, momentum=0.0)
    batch = pk_batch(data, data.identity_index(), cfg, np.random.default_rng(0))
    train_step(state, batch, cfg, Optimizer(state.params, cfg))
    for name, p in state.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_train_loss_components_finite_at_init():
    data = synth_generate(SyntheticDatasetSpec())
    state = tiny_model()
    cfg = TrainConfig(identities_per_batch=2, instances_per_identity=4, lr=0.0)
    batch = pk_batch(data, data.identity_index(), cfg, np.random.default_rng(1))
    _, comp = train_step(state, batch, cfg, Optimizer(state.params, cfg))
    assert set(comp) == {"total", "ce_l1", "ce_h1", "tri_l2", "tri_h2"}
    assert all(np.isfinite(v) for v in comp.values())
    assert comp["total"] == pytest.approx(
        comp["ce_l1"] + comp["ce_h1"] + comp["tri_l2"] + comp["tri_h2"], rel=1e-6
    )


def test_fit_deterministic_trajectory():
    data = synth_generate(SyntheticDatasetSpec(num_identities=4, images_per_identity=4))
    cfg = TrainConfig(identities_per_batch=2, instances_per_identity=2, steps=3, seed=5)
    rec1 = fit(tiny_model(), data, cfg)
    rec2 = fit(tiny_model(), data, cfg)
    assert rec1 == rec2


def test_single_batch_overfit_halves_loss():
    data = synth_generate(SyntheticDatasetSpec())
    state = tiny_model()
    cfg = TrainConfig(identities_per_batch=2, instances_per_identity=4, lr=0.03, steps=100)
    batch = pk_batch(data, data.identity_index(), cfg, np.random.default_rng(0))
    opt = Optimizer(state.params, cfg)
    first = last = None
    for _ in range(100):
        _, comp = train_step(state, batch, cfg, opt)
        first = comp["total"] if first is None else first
        last = comp["total"]
    assert last <= 0.5 * first


def test_backward_peak_memory_stays_near_the_forward_footprint():
    # criterion 7's step, attention on.  Backward frees each node's gradient
    # and saved arrays once used, so its traced peak stays close to what the
    # forward holds.
    forward = criterion7.step_forward(attention_enabled=True)
    tracemalloc.start()
    try:
        total = forward()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        backward(total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * held, f"backward peak {peak / 1e6:.1f} MB, forward holds {held / 1e6:.1f} MB"


def test_training_forward_holds_under_30_mb():
    # criterion 7's step, as above.  The graph keeps the activations and
    # GELU's CDF, which would take an erf to rebuild; a conv's tap columns,
    # reordered weights and padded buffers are rebuilt in its backward.
    # Keeping the dense convs' columns alone would add 18.9 MB.
    forward = criterion7.step_forward(attention_enabled=True)
    tracemalloc.start()
    try:
        total = forward()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.requires_grad
    assert held < 30e6, f"the forward holds {held / 1e6:.1f} MB"


def test_adam_optimizer_also_learns():
    data = synth_generate(SyntheticDatasetSpec())
    state = tiny_model()
    cfg = TrainConfig(
        identities_per_batch=2, instances_per_identity=4, lr=0.002, steps=40, optimizer="adam"
    )
    batch = pk_batch(data, data.identity_index(), cfg, np.random.default_rng(0))
    opt = Optimizer(state.params, cfg)
    first = last = None
    for _ in range(cfg.steps):
        _, comp = train_step(state, batch, cfg, opt)
        first = comp["total"] if first is None else first
        last = comp["total"]
    assert last < first


def _assert_step_fails_and_changes_nothing(opt, name):
    """opt.step() raises TrainingDivergence naming parameter `name` and
    leaves every parameter, slot and the step count as they were."""
    params = {n: p.data.copy() for n, p in opt.params.items()}
    slots = {n: {k: v.copy() for k, v in slot.items()} for n, slot in opt.slots.items()}
    t = opt.t
    with pytest.raises(TrainingDivergence, match=f"parameter {name}$"):
        opt.step()
    assert opt.t == t
    for n, p in opt.params.items():
        np.testing.assert_array_equal(p.data, params[n])
    assert opt.slots.keys() == slots.keys()
    for n, slot in slots.items():
        assert opt.slots[n].keys() == slot.keys()
        for k in slot:
            np.testing.assert_array_equal(opt.slots[n][k], slot[k])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_optimizer_step_with_a_nonfinite_update_changes_nothing(optimizer):
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.full(2, 3e38, dtype=np.float32), requires_grad=True)
    opt = Optimizer({"a": a, "b": b}, TrainConfig(lr=1e38, optimizer=optimizer))
    a.grad, b.grad = np.ones(3, dtype=np.float32), np.zeros(2, dtype=np.float32)
    opt.step()
    b.grad = np.full(2, -1e15, dtype=np.float32)  # pushes b past float32's largest value
    _assert_step_fails_and_changes_nothing(opt, "b")


# Every bad gradient reaches a slot: SGD's v holds g, Adam's m holds
# (1 - b1) * g, and clipping an Inf scales it by 0, which gives NaN.  The
# last case is a finite gradient whose square overflows Adam's v.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("optimizer,bad,clip", [
    *((o, bad, clip) for o in ("sgd", "adam") for bad in (np.inf, np.nan) for clip in (0.0, 5.0)),
    ("adam", 1e30, 0.0),
])
def test_optimizer_step_with_a_bad_gradient_changes_nothing(optimizer, bad, clip):
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.full(2, 2.0, dtype=np.float32), requires_grad=True)
    opt = Optimizer({"a": a, "b": b}, TrainConfig(lr=0.1, optimizer=optimizer, grad_clip_norm=clip))
    a.grad, b.grad = np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float32)
    opt.step()
    a.grad, b.grad = np.ones(3, dtype=np.float32), np.array([1.0, bad], dtype=np.float32)
    clip_grad_norm(opt.params, clip)
    _assert_step_fails_and_changes_nothing(opt, "b")


def test_optimizer_slots_start_at_zero():
    a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    for optimizer, names in (("sgd", ["v"]), ("adam", ["m", "v"])):
        slot = Optimizer({"a": a}, TrainConfig(optimizer=optimizer)).slots["a"]
        assert sorted(slot) == names
        assert all(v.shape == a.shape and v.dtype == a.dtype and not v.any() for v in slot.values())


def test_train_config_validation():
    for p in (0, 1):  # the triplet loss needs two identities per batch
        with pytest.raises(ValueError, match="P must be >= 2"):
            TrainConfig(identities_per_batch=p)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    for name in ("lr", "momentum", "margin", "grad_clip_norm"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})
    for name in ("lr", "margin", "grad_clip_norm"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            TrainConfig(**{name: -0.1})
    for momentum in (-0.5, 1.0, 1.5):
        with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
            TrainConfig(momentum=momentum)
    assert TrainConfig(lr=0.0, momentum=0.0, margin=0.0).lr == 0.0
    for name in ("num_identities", "images_per_identity", "num_cameras"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            SyntheticDatasetSpec(**{name: 0})
    with pytest.raises(ValueError, match="image_size must be >= 2, got 0"):
        SyntheticDatasetSpec(image_size=0)
    assert TrainConfig(steps=0).steps == 0


@pytest.mark.parametrize("config", [TrainConfig, SyntheticDatasetSpec])
def test_negative_seed_rejected_by_name(config):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        config(seed=-1)
    assert config(seed=0).seed == 0
