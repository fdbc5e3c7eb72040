"""Retrieval protocol: manifests, cosine similarity, junk filtering, AP,
CMC, and the full report against an enumerated oracle."""
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lkareid.evaluation import (
    MAX_BRACKETS,
    ManifestError,
    Sample,
    apply_protocol_filter,
    average_precision,
    cmc_curve,
    evaluate,
    evaluate_features,
    load_manifest,
    pairwise_cosine,
    parse_veri_name,
)
from oracles import ap_oracle, cosine_oracle, retrieval_oracle


# ---------------------------------------------------------------------------
# manifests


def _write_manifest(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_load_manifest_json_records(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"path": "a.npy", "vehicle_id": 3, "camera_id": 1, "view_id": 0},
        {"path": "b.npy", "vehicle_id": 4, "camera_id": 2},
    ])
    man = load_manifest(path, split="query")
    assert len(man.samples) == 2
    assert man.samples[0].vehicle_id == 3 and man.samples[0].camera_id == 1


def test_load_manifest_veri_filename_parser(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [{"path": "0001_c001_00016450_0.jpg"}])
    man = load_manifest(path, split="gallery")
    assert man.samples[0].vehicle_id == 1
    assert man.samples[0].camera_id == 1


def test_parse_veri_name():
    assert parse_veri_name("0123_c017_00001_3.jpg") == (123, 17)
    with pytest.raises(ValueError):
        parse_veri_name("not-a-veri-name.jpg")


def test_load_manifest_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ManifestError):
        load_manifest(empty, split="query")

    dup = tmp_path / "dup.jsonl"
    _write_manifest(dup, [
        {"path": "a.npy", "vehicle_id": 1, "camera_id": 0},
        {"path": "a.npy", "vehicle_id": 2, "camera_id": 1},
    ])
    with pytest.raises(ManifestError):
        load_manifest(dup, split="query")

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"path": "a.npy", "vehicle_id": 1, "camera_id": 0}\nnot json\n')
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(bad, split="query")

    mixed = tmp_path / "mixed.jsonl"
    _write_manifest(mixed, [
        {"feature": [1.0, 0.0], "vehicle_id": 1, "camera_id": 0, "path": "a"},
        {"feature": [1.0, 0.0, 0.0], "vehicle_id": 2, "camera_id": 1, "path": "b"},
    ])
    with pytest.raises(ManifestError):
        load_manifest(mixed, split="query")


BAD_IDS = {
    "float_vehicle": {"vehicle_id": 3.7},
    "integral_float_vehicle": {"vehicle_id": 3.0},
    "bool_camera": {"camera_id": True},
    "string_vehicle": {"vehicle_id": "3"},
    "negative_camera": {"camera_id": -1},
    "string_view": {"view_id": "left"},
    "float_view": {"view_id": 1.5},
    "bool_view": {"view_id": False},
    "negative_view": {"view_id": -2},
}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_load_manifest_rejects_non_integer_ids(tmp_path, case):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"path": "a.npy", "vehicle_id": 1, "camera_id": 0},
        {"path": "b.npy", "vehicle_id": 3, "camera_id": 1, **BAD_IDS[case]},
    ])
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(path, split="query")
    with pytest.raises(ValueError):
        Sample(**{"vehicle_id": 3, "camera_id": 1, **BAD_IDS[case]})


@pytest.mark.parametrize("record", [
    {"feature": [1.0, 0.0]},
    {"feature": [1.0, 0.0], "vehicle_id": 1},
    {"path": 5, "vehicle_id": 1, "camera_id": 0},
    {"path": ["a.npy"], "vehicle_id": 1, "camera_id": 0},
], ids=["no_ids_no_path", "one_id_no_path", "int_path", "list_path"])
def test_load_manifest_rejects_records_without_usable_path(tmp_path, record):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [record])
    with pytest.raises(ManifestError, match=":1:"):
        load_manifest(path, split="query")


def test_load_manifest_keeps_integer_ids(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"path": "a.npy", "vehicle_id": 0, "camera_id": 7, "view_id": None},
        {"path": "b.npy", "vehicle_id": 12, "camera_id": 0, "view_id": 3},
    ])
    samples = load_manifest(path, split="query").samples
    assert [(s.vehicle_id, s.camera_id, s.view_id) for s in samples] == [(0, 7, None), (12, 0, 3)]
    assert all(type(v) is int for v in (samples[1].vehicle_id, samples[1].camera_id, samples[1].view_id))
    assert Sample(np.int64(5), np.int32(2)).vehicle_id == 5


def test_load_manifest_rejects_ids_beyond_64_bits(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"feature": [1.0, 0.0], "vehicle_id": 1, "camera_id": 0},
        {"feature": [1.0, 0.0], "vehicle_id": 2**63, "camera_id": 1},
    ])
    with pytest.raises(ManifestError, match=":2:.*64 bits"):
        load_manifest(path, split="query")


_GOOD_LINE = '{"feature": [0.5, 0.5], "vehicle_id": 1, "camera_id": 0}'

# JSON text of a line-2 feature that load_manifest must reject
BAD_FEATURES = {
    "object": '{"x": 1}',
    "string": '"0.5, 0.5"',
    "number": "0.5",
    "ragged": "[[0.5], [0.5, 0.5]]",
    "nested": "[[0.5, 0.5]]",
    "string_value": '[0.5, "a"]',
    "numeric_string_value": '[0.5, "0.5"]',
    "true_value": "[0.5, true]",
    "bool_values": "[false, true]",
    "null_value": "[0.5, null]",
    "nan_value": "[0.5, NaN]",
    "inf_value": "[0.5, 1e999]",
    "huge_int": "[0.5, 1" + "0" * 400 + "]",
    "wrong_dim": "[0.5, 0.5, 0.5]",
}


@pytest.mark.parametrize("case", sorted(BAD_FEATURES))
def test_load_manifest_rejects_malformed_features(tmp_path, case):
    path = tmp_path / "m.jsonl"
    bad = f'{{"feature": {BAD_FEATURES[case]}, "vehicle_id": 2, "camera_id": 1}}'
    path.write_text(f"{_GOOD_LINE}\n{bad}\n")
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(path, split="query")


@pytest.mark.parametrize("line", [
    b'{"path": "\xff.npy", "vehicle_id": 2, "camera_id": 1}',
    b"[" * 100000,
], ids=["non_utf8", "deep_nesting"])
def test_load_manifest_rejects_undecodable_lines(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_bytes(_GOOD_LINE.encode() + b"\n" + line + b"\n")
    with pytest.raises(ManifestError, match=":2:"):
        load_manifest(path, split="query")


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(
        lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
        st.sampled_from(["", "-"]),
        st.one_of(st.just("0"), st.from_regex(r"[1-9][0-9]{0,19}", fullmatch=True)),
        st.one_of(st.just(""), st.from_regex(r"\.[0-9]{1,20}", fullmatch=True)),
        st.one_of(
            st.just(""),
            st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 330)),
            st.integers(-330, 310).map("e{}".format),
        ),
    ),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(texts=st.lists(_NUMBER_TEXT, min_size=1, max_size=8))
def test_manifest_numbers_load_as_float_of_their_text(tmp_path_factory, texts):
    # a JSON integer is an int first, so "-0" loads as +0.0
    want = np.array([float(t) if any(c in t for c in ".eE") else float(int(t)) for t in texts])
    assume(np.isfinite(want).all())
    path = tmp_path_factory.mktemp("numbers") / "m.jsonl"
    path.write_text(f'{{"feature": [{", ".join(texts)}], "vehicle_id": 1, "camera_id": 0}}\n')
    got = load_manifest(path, split="query").features()[0]
    assert got.tobytes() == want.tobytes(), texts


def test_manifest_30_digit_integer_feature_loads_as_its_float(tmp_path):
    digits = "123456789012345678901234567890"
    path = tmp_path / "m.jsonl"
    path.write_text(f"{_GOOD_LINE}\n" + f'{{"feature": [0.5, {digits}], "vehicle_id": 2, "camera_id": 1}}\n')
    row = load_manifest(path, split="query").features()[1]
    assert row.tobytes() == np.array([0.5, float(int(digits))]).tobytes()


# records of line 2 that are not RFC 8259 JSON
_NOT_RFC_8259 = {
    **{
        f"{where}_{name}": f'{{"feature": {feature}, "vehicle_id": 2, "camera_id": 1{extra}}}'
        for name, text in [("nan", "NaN"), ("inf", "Infinity"), ("minus_inf", "-Infinity"), ("overflow", "1e999")]
        for where, feature, extra in [("feature", f"[0.5, {text}]", ""), ("extra", "[0.5, 0.5]", f', "extra": {text}')]
    },
    "lone_surrogate_path": '{"path": "\\ud800", "feature": [0.5, 0.5], "vehicle_id": 2, "camera_id": 1}',
}


@pytest.mark.parametrize("case", sorted(_NOT_RFC_8259))
def test_load_manifest_rejects_json_outside_rfc_8259(tmp_path, case):
    path = tmp_path / "m.jsonl"
    path.write_text(f"{_GOOD_LINE}\n{_NOT_RFC_8259[case]}\n")
    with pytest.raises(ManifestError, match=":2: invalid JSON"):
        load_manifest(path, split="query")


def test_load_manifest_caps_brackets_per_line(tmp_path):
    # brackets inside strings count too; a record with a feature uses two
    def record(n_brackets):
        return json.dumps({"path": "[" * (n_brackets - 2), "feature": [0.5, 0.5], "vehicle_id": 2, "camera_id": 1})

    path = tmp_path / "m.jsonl"
    path.write_text(f"{_GOOD_LINE}\n{record(MAX_BRACKETS)}\n")
    assert len(load_manifest(path, split="query").samples) == 2
    path.write_text(f"{_GOOD_LINE}\n{record(MAX_BRACKETS + 1)}\n")
    with pytest.raises(ManifestError, match=f":2: more than {MAX_BRACKETS} "):
        load_manifest(path, split="query")


def test_manifest_features_are_one_float64_matrix(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"feature": [1, 0], "vehicle_id": 1, "camera_id": 0},
        {"feature": [0.5, -2.5], "vehicle_id": 2, "camera_id": 1},
    ])
    man = load_manifest(path, split="query")
    feats = man.features()
    assert feats.dtype == np.float64
    assert np.array_equal(feats, [[1.0, 0.0], [0.5, -2.5]])
    assert not hasattr(man.samples[0], "feature")


def test_manifest_features_need_a_feature_on_every_record(tmp_path):
    path = tmp_path / "m.jsonl"
    _write_manifest(path, [
        {"feature": [1.0, 0.0], "vehicle_id": 1, "camera_id": 0, "path": "a"},
        {"path": "b", "vehicle_id": 2, "camera_id": 1},
    ])
    man = load_manifest(path, split="query")
    with pytest.raises(ValueError, match="without precomputed features"):
        man.features()


# ---------------------------------------------------------------------------
# cosine similarity


def test_cosine_identical_and_orthogonal():
    a = np.array([[1.0, 2.0, 3.0]])
    assert pairwise_cosine(a, a)[0, 0] == pytest.approx(1.0)
    q = np.array([[1.0, 0.0]])
    g = np.array([[0.0, 5.0]])
    assert pairwise_cosine(q, g)[0, 0] == pytest.approx(0.0)


def test_cosine_matches_loop_oracle():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(3, 4))
    g = rng.normal(size=(5, 4))
    np.testing.assert_allclose(pairwise_cosine(q, g), cosine_oracle(q, g), atol=1e-12)


def test_cosine_zero_norm_rejected():
    with pytest.raises(ValueError):
        pairwise_cosine(np.zeros((1, 3)), np.ones((1, 3)))


# ---------------------------------------------------------------------------
# protocol filter


def test_protocol_filter_junk_rule():
    query = Sample(vehicle_id=5, camera_id=2)
    gallery = [Sample(5, 2), Sample(5, 3), Sample(7, 2)]
    np.testing.assert_array_equal(
        apply_protocol_filter(query, gallery), [False, True, True]
    )


def test_protocol_filter_all_distinct_cameras():
    query = Sample(1, 0)
    gallery = [Sample(1, 1), Sample(2, 2), Sample(3, 3)]
    assert apply_protocol_filter(query, gallery).all()


# ---------------------------------------------------------------------------
# AP / CMC


def test_average_precision_hand_cases():
    assert average_precision([1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert average_precision([1, 1, 1]) == pytest.approx(1.0)
    assert average_precision([0, 1]) == pytest.approx(0.5)


@pytest.mark.parametrize("seed", range(10))
def test_average_precision_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    rel = rng.integers(0, 2, size=12)
    if rel.sum() == 0:
        rel[3] = 1
    assert average_precision(rel.tolist()) == pytest.approx(ap_oracle(rel.tolist()), abs=1e-12)


def test_cmc_hand_case():
    cmc = cmc_curve([[1, 0, 0], [0, 0, 1]], 3)
    np.testing.assert_allclose(cmc, [0.5, 0.5, 1.0])


def test_cmc_always_first_hit():
    cmc = cmc_curve([[1, 0], [1, 1]], 2)
    np.testing.assert_allclose(cmc, [1.0, 1.0])


@pytest.mark.parametrize("seed", range(5))
def test_cmc_monotone_property(seed):
    rng = np.random.default_rng(seed)
    lists = []
    for _ in range(6):
        rel = rng.integers(0, 2, size=8)
        if rel.sum() == 0:
            rel[-1] = 1
        lists.append(rel.tolist())
    cmc = cmc_curve(lists, 8)
    assert all(b >= a for a, b in zip(cmc, cmc[1:]))
    assert cmc[-1] <= 1.0


# ---------------------------------------------------------------------------
# evaluate


def _fixture():
    """3 queries, 6 gallery entries with handcrafted features."""
    q_feats = np.eye(3)
    q_meta = [(0, 0), (1, 0), (2, 0)]
    g_feats = np.array([
        [1.0, 0.1, 0.0],   # id 0 cam 1 (strong match for q0)
        [0.9, 0.2, 0.1],   # id 1 cam 1 (distractor ranked high for q0)
        [0.0, 1.0, 0.0],   # id 1 cam 2
        [0.1, 0.0, 1.0],   # id 2 cam 1
        [0.2, 0.1, 0.9],   # id 0 cam 2 (second positive for q0)
        [0.5, 0.5, 0.5],   # id 2 cam 0 -> junk for q2 (same id+cam)
    ])
    g_meta = [(0, 1), (1, 1), (1, 2), (2, 1), (0, 2), (2, 0)]
    return q_feats, q_meta, g_feats, g_meta


def _samples(meta):
    return [Sample(vehicle_id=v, camera_id=c) for v, c in meta]


def test_evaluate_matches_enumeration_oracle():
    q_feats, q_meta, g_feats, g_meta = _fixture()
    report = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=6)
    want_map, want_cmc, want_skipped = retrieval_oracle(q_feats, q_meta, g_feats, g_meta, max_rank=6)
    assert report.map_score == pytest.approx(want_map, abs=1e-12)
    np.testing.assert_allclose(report.cmc, want_cmc, atol=1e-12)
    assert report.skipped_queries == want_skipped


def test_evaluate_perfect_retrieval():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(4, 8))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    q = _samples([(i, 0) for i in range(4)])
    g = _samples([(i, 1) for i in range(4)])
    report = evaluate_features(feats, q, feats, g, max_rank=4)
    assert report.map_score == pytest.approx(1.0)
    assert report.rank1 == pytest.approx(1.0)


def test_evaluate_gallery_permutation_invariance():
    q_feats, q_meta, g_feats, g_meta = _fixture()
    base = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=5)
    rng = np.random.default_rng(2)
    perm = rng.permutation(len(g_meta))
    shuffled = evaluate_features(
        q_feats, _samples(q_meta), g_feats[perm], _samples([g_meta[i] for i in perm]), max_rank=5
    )
    assert shuffled.map_score == pytest.approx(base.map_score, abs=1e-12)
    np.testing.assert_allclose(shuffled.cmc, base.cmc, atol=1e-12)


def test_evaluate_monotone_similarity_invariance():
    q_feats, q_meta, g_feats, g_meta = _fixture()
    base = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=5)
    scaled = evaluate_features(
        3.0 * q_feats, _samples(q_meta), 0.5 * g_feats, _samples(g_meta), max_rank=5
    )
    assert scaled.map_score == pytest.approx(base.map_score, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_junk_append_invariance(seed):
    # entries sharing the single query's id and camera are junk for it
    rng = np.random.default_rng(seed)
    n_g, dim = 8, 5
    q_feats = rng.normal(size=(1, dim))
    g_feats = rng.normal(size=(n_g, dim))
    q_meta = [(0, 0)]
    g_meta = [(int(rng.integers(0, 3)), int(rng.integers(1, 3))) for _ in range(n_g)]
    g_meta[0] = (0, 1)  # guarantee a cross-camera positive
    base = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=5)
    junk_feats = rng.normal(size=(3, dim))
    aug_feats = np.concatenate([g_feats, junk_feats])
    aug_meta = g_meta + [(0, 0)] * 3  # same id+cam as the query -> all junk
    aug = evaluate_features(q_feats, _samples(q_meta), aug_feats, _samples(aug_meta), max_rank=5)
    assert aug.map_score == pytest.approx(base.map_score, abs=1e-12)
    np.testing.assert_allclose(aug.cmc, base.cmc, atol=1e-12)


def test_evaluate_skips_zero_positive_queries():
    q_feats = np.eye(2)
    q_meta = [(0, 0), (9, 0)]  # id 9 has no gallery positives
    g_feats = np.eye(2)
    g_meta = [(0, 1), (1, 1)]
    report = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=2)
    assert report.skipped_queries == 1
    assert len(report.per_query_ap) == 1


def test_evaluate_all_skipped_errors():
    q_feats = np.eye(2)
    g_feats = np.eye(2)
    q = _samples([(5, 0), (6, 0)])
    g = _samples([(7, 1), (8, 1)])
    with pytest.raises(ValueError):
        evaluate_features(q_feats, q, g_feats, g)


def test_report_json_shape():
    q_feats, q_meta, g_feats, g_meta = _fixture()
    report = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=5)
    doc = json.loads(report.to_json())
    assert doc["format_version"] == 1
    assert 0.0 <= doc["mAP"] <= 1.0
    assert len(doc["cmc"]) == 5
    assert "skipped_queries" in doc and "protocol" in doc


def test_evaluate_from_feature_manifests(tmp_path):
    q_path, g_path = tmp_path / "q.jsonl", tmp_path / "g.jsonl"
    _write_manifest(q_path, [
        {"path": f"q{i}", "feature": row, "vehicle_id": i, "camera_id": 0}
        for i, row in enumerate(np.eye(3).tolist())
    ])
    _write_manifest(g_path, [
        {"path": f"g{i}", "feature": row, "vehicle_id": i, "camera_id": 1}
        for i, row in enumerate(np.eye(3).tolist())
    ])
    report = evaluate(load_manifest(q_path, "query"), load_manifest(g_path, "gallery"), max_rank=3)
    assert report.map_score == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# malformed input


def _malformed(case):
    """A 2 x 3 probe that scores, with one defect applied."""
    q_feats = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    g_feats = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.0], [0.0, 0.5, 1.0]])
    q_meta = [(0, 0), (1, 0)]
    g_meta = [(0, 1), (1, 1), (0, 2)]
    if case == "extra_query_row":
        q_feats = np.vstack([q_feats, [0.0, 0.0, 1.0]])
    elif case == "extra_gallery_row":
        g_feats = np.vstack([g_feats, [1.0, 1.0, 1.0]])
    elif case == "missing_query_row":
        q_feats = q_feats[:1]
    elif case == "missing_gallery_row":
        g_feats = g_feats[:2]
    elif case == "nan_gallery_feature":
        g_feats[2, 0] = np.nan
    elif case == "inf_query_feature":
        q_feats[1, 2] = np.inf
    elif case == "flat_query_features":
        q_feats, q_meta = q_feats[0], q_meta[:1]
    return q_feats, _samples(q_meta), g_feats, _samples(g_meta)


@pytest.mark.parametrize("case", [
    "extra_query_row", "extra_gallery_row", "missing_query_row", "missing_gallery_row",
    "nan_gallery_feature", "inf_query_feature", "flat_query_features",
])
def test_evaluate_rejects_malformed_features(case):
    with pytest.raises(ValueError, match="query|gallery"):
        evaluate_features(*_malformed(case), max_rank=3)


# ---------------------------------------------------------------------------
# equal similarities: stable gallery order


@pytest.mark.parametrize("order, want_first_hit", [
    ([0, 1], 2),  # the equally similar distractor comes first
    ([1, 0], 1),
])
def test_tied_similarities_rank_in_gallery_order(order, want_first_hit):
    q_feats = np.array([[1.0, 0.0]])
    g_feats = np.array([[2.0, 0.0], [1.0, 0.0]])[order]
    g_meta = [[(1, 1), (0, 1)][i] for i in order]  # distractor, positive
    sims = pairwise_cosine(q_feats, g_feats)
    assert sims[0, 0] == sims[0, 1]
    report = evaluate_features(q_feats, _samples([(0, 0)]), g_feats, _samples(g_meta), max_rank=2)
    assert report.per_query_ap == [1.0 / want_first_hit]
    assert report.first_hit_ranks.tolist() == [want_first_hit]
    np.testing.assert_array_equal(report.cmc, [want_first_hit == 1, 1.0])
    assert "first_hit_ranks" not in json.loads(report.to_json())


# Feature rows from a palette whose cosines are exact in binary floating
# point: one-hot and all-±1 directions in 4-d, scaled by powers of two.
# Both the library and the oracle then compute identical similarities,
# which take only five values, so ties are everywhere.
_PALETTE = np.vstack([np.eye(4), -np.eye(4), list(itertools.product((-1.0, 1.0), repeat=4))])
_SCALES = (0.5, 1.0, 2.0, 4.0)


def _palette_rows(entries):
    feats = np.array([_SCALES[scale] * _PALETTE[d] for d, scale, _, _ in entries])
    return feats, [(vid, cam) for _, _, vid, cam in entries]


_ENTRY = st.tuples(
    st.integers(0, len(_PALETTE) - 1), st.integers(0, len(_SCALES) - 1),
    st.integers(0, 3), st.integers(0, 2),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    queries=st.lists(_ENTRY, min_size=1, max_size=5),
    gallery=st.lists(_ENTRY, min_size=1, max_size=14),
    max_rank=st.integers(1, 8),
)
def test_tie_heavy_sets_match_oracle(queries, gallery, max_rank):
    q_feats, q_meta = _palette_rows(queries)
    g_feats, g_meta = _palette_rows(gallery)
    args = (q_feats, _samples(q_meta), g_feats, _samples(g_meta))
    scored = [
        qi for qi, (vid, cam) in enumerate(q_meta)
        if any(g_vid == vid and g_cam != cam for g_vid, g_cam in g_meta)
    ]
    if not scored:
        with pytest.raises(ValueError, match="skipped"):
            evaluate_features(*args, max_rank=max_rank)
        return
    report = evaluate_features(*args, max_rank=max_rank)
    want_map, want_cmc, want_skipped = retrieval_oracle(
        q_feats, q_meta, g_feats, g_meta, max_rank=min(max_rank, len(g_meta))
    )
    assert report.skipped_queries == want_skipped
    assert abs(report.map_score - want_map) <= 1e-12
    np.testing.assert_allclose(report.cmc, want_cmc, rtol=0, atol=1e-12)
    assert len(report.per_query_ap) == len(report.first_hit_ranks) == len(scored)
    for qi, ap, first_hit in zip(scored, report.per_query_ap, report.first_hit_ranks):
        one_ap, one_cmc, _ = retrieval_oracle(
            q_feats[qi:qi + 1], q_meta[qi:qi + 1], g_feats, g_meta, max_rank=len(g_meta)
        )
        assert abs(ap - one_ap) <= 1e-12
        assert first_hit == len(g_meta) + 1 - sum(one_cmc)


# SHA-256 of the per-query AP and CMC float64 bytes on the seeded set below,
# measured with the argsort ranking this module used before positive-only
# ranks replaced it.
TIE_HEAVY_DIGEST = "acc6dadb020dbae1b43d0c0375a728513279c2c8b0d7622577c16755fd6c7957"


def test_tie_heavy_report_golden():
    rng = np.random.default_rng(2024)

    def entries(n, ids):
        return list(zip(
            rng.integers(0, len(_PALETTE), n).tolist(), rng.integers(0, len(_SCALES), n).tolist(),
            rng.integers(0, ids, n).tolist(), rng.integers(0, 4, n).tolist(),
        ))

    q_feats, q_meta = _palette_rows(entries(60, 14))  # ids 12 and 13 are skipped
    g_feats, g_meta = _palette_rows(entries(400, 12))
    report = evaluate_features(q_feats, _samples(q_meta), g_feats, _samples(g_meta), max_rank=20)
    blob = np.asarray(report.per_query_ap, dtype=np.float64).tobytes()
    blob += np.asarray(report.cmc, dtype=np.float64).tobytes()
    assert hashlib.sha256(blob).hexdigest() == TIE_HEAVY_DIGEST
