"""Re-identification protocol: manifests, cosine ranking, cross-camera
filtering, mAP and the CMC curve.

Gallery entries sharing both identity and camera with the query are junk
and excluded from ranking; a query left without any valid positive is
skipped and counted, not scored zero.  Equal similarities rank in gallery
order, as a stable sort by descending similarity would place them; only
the positives' ranks are computed.  Features must be finite, 2-d, with
exactly one row per sample.

Cosine similarity divides each row by its L2 norm.  A row whose squared
norm over- or underflows a double (computed norm inf, or 0 with a nonzero
entry) is divided by its max |value| first; an all-zero row is an error.
The gallery is normalized once; the queries are ranked QUERY_BLOCK rows at
a time against it, so no query x gallery matrix is ever held.  An index
from identity to gallery positions gives each query its positives and
junk without a pass over the whole gallery; a positive's rank is counted
among the valid entries at or above the lowest positive, sorted.  The tie
and junk rules are the same as a full stable sort's.

A manifest line is one RFC 8259 JSON text, decoded by orjson: NaN,
Infinity, numbers that overflow a double and lone surrogate escapes are
invalid JSON.  orjson reads each line's raw bytes; only a line it rejects
is decoded and stripped of whitespace, so a line that str.strip() empties
is skipped and a record wrapped in other Unicode whitespace still loads.
A manifest feature is a non-empty flat list of JSON numbers.  Each is
converted and checked once, as its line is read, and its float64 bytes
are appended to one bytearray, which the manifest's feature matrix then
views, so the file is read once and may be a pipe; any malformed line,
undecodable bytes included, raises ManifestError with its line number.
"""
from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass, field

import numpy as np
import orjson

FORMAT_VERSION = 1
MAX_RANK = 10  # the CMC curve's length when a caller sets none

# orjson 3.8.3 overflows the C stack, killing the interpreter, on a line
# nested some 150000 deep, so a line with more '[' and '{' than this is
# rejected before it is decoded.  A valid record needs two.
MAX_BRACKETS = 1024

# Query rows whose similarities to the whole gallery are held at once: 24 MB
# of float64 against a VeRi-776 gallery, where all 1678 queries take 155 MB.
QUERY_BLOCK = 256

_VERI_NAME = re.compile(r"^(\d+)_c(\d+)[_.]")


class ManifestError(ValueError):
    """Malformed manifest file; message carries the offending line number."""


def _id(name, value):
    """A non-negative integer id; bools, floats and strings are rejected,
    not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    if value >= 2**63:
        raise ValueError(f"{name} {value} does not fit in 64 bits")
    return int(value)


@dataclass
class Sample:
    vehicle_id: int
    camera_id: int
    view_id: int | None = None
    path: str | None = None

    def __post_init__(self):
        self.vehicle_id = _id("vehicle_id", self.vehicle_id)
        self.camera_id = _id("camera_id", self.camera_id)
        if self.view_id is not None:
            self.view_id = _id("view_id", self.view_id)


@dataclass
class Manifest:
    split: str
    samples: list
    feature_matrix: np.ndarray | None = None  # float64, one row per sample

    def __post_init__(self):
        if self.split not in ("query", "gallery", "train"):
            raise ValueError(f"unknown split {self.split!r}")
        if not self.samples:
            raise ValueError("manifest must not be empty")

    def features(self):
        if self.feature_matrix is None:
            raise ValueError(f"{self.split} manifest has samples without precomputed features")
        return self.feature_matrix


@dataclass
class EvalReport:
    map_score: float
    cmc: np.ndarray  # cmc[r-1] = CMC at rank r
    per_query_ap: list
    skipped_queries: int
    first_hit_ranks: np.ndarray  # 1-based, one per scored query in query order
    protocol: dict = field(default_factory=dict)

    @property
    def rank1(self):
        return float(self.cmc[0])

    def to_json(self):
        return json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "mAP": self.map_score,
                "cmc": [float(v) for v in self.cmc],
                "per_query_ap": [float(v) for v in self.per_query_ap],
                "skipped_queries": self.skipped_queries,
                "protocol": self.protocol,
            },
            indent=2,
            sort_keys=True,
        )


def parse_veri_name(name):
    """VeRi-style '0001_c001_00016450_0.jpg' -> (vehicle_id, camera_id)."""
    m = _VERI_NAME.match(name.rsplit("/", 1)[-1])
    if m is None:
        raise ValueError(f"cannot parse ids from filename {name!r}")
    return int(m.group(1)), int(m.group(2))


def _feature_row(feature, dim):
    """The float64 bytes of a non-empty flat list of finite JSON numbers,
    dim long if dim is given."""
    row = None
    if type(feature) is list and feature:  # a str or a dict would unpack to its characters or keys
        try:
            # struct packs ints and floats, bools as 1/0, and rejects other values and lengths
            packed = struct.pack(f"{len(feature) if dim is None else dim}d", *feature)
            row = np.frombuffer(packed)
        except struct.error:
            pass
    # look for JSON true/false only where a value is 0 or 1
    if row is None or ((row == row.astype(bool)).any() and bool in map(type, feature)):
        _reject(feature, dim)
    if not np.isfinite(row).all():
        raise ValueError("sample feature contains non-finite values")
    return packed


def _reject(feature, dim):
    """Raise why a feature is not a flat list of dim JSON numbers, in the
    order of the checks: flat (a ragged list raises numpy's own
    ValueError), numbers, not empty, then length."""
    row = np.asarray(feature)
    if row.ndim != 1:
        raise ValueError("feature must be a flat vector")
    if row.dtype.kind not in "iuf" or bool in map(type, feature):
        raise ValueError("feature values must be JSON numbers")
    if not row.size:
        raise ValueError("feature must not be empty")
    raise ValueError(f"feature dim {row.size} != {dim}")


def _parse_record(record, seen_paths):
    """The Sample and the feature (None if absent) of one decoded record."""
    if not isinstance(record, dict):
        raise ValueError("record must be a JSON object")
    rec_path = record.get("path")
    feature = record.get("feature")
    if rec_path is None and feature is None:
        raise ValueError("record needs 'path' or 'feature'")
    if rec_path is not None:
        if not isinstance(rec_path, str):
            raise ValueError("path must be a string")
        if rec_path in seen_paths:
            raise ValueError(f"duplicate path {rec_path!r}")
        seen_paths.add(rec_path)
    if "vehicle_id" in record and "camera_id" in record:
        vid, cam = record["vehicle_id"], record["camera_id"]
    elif rec_path is None:
        raise ValueError("a record without a path needs vehicle_id and camera_id")
    else:
        vid, cam = parse_veri_name(rec_path)
    return Sample(vid, cam, record.get("view_id"), rec_path), feature


def load_manifest(path, split="gallery"):
    """Line-delimited UTF-8 JSON records with path|feature, vehicle_id,
    camera_id, and optional view_id; ids missing from a record are parsed
    from a VeRi-style filename.  Each line is RFC 8259 JSON with at most
    MAX_BRACKETS '[' and '{' in all, a cap that keeps the decoder from
    recursing deep enough to crash.  Ids must be non-negative JSON integers
    (view_id may also be null).  Each feature's float64 bytes are appended
    to one bytearray as its line is read; when every record has a feature,
    the manifest's matrix is a view of that buffer.  Any defect in a line
    raises ManifestError naming the file and line."""
    samples, rows, seen_paths, dim = [], bytearray(), set(), None
    # a 512-d feature line is about 5 KB, so the default 8 KB buffer would
    # take nearly one read call per line
    with open(path, "rb", buffering=1 << 16) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                if raw.count(b"[") + raw.count(b"{") > MAX_BRACKETS:
                    raw.decode("utf-8")  # undecodable bytes are reported first
                    raise ValueError(f"more than {MAX_BRACKETS} '[' and '{{' in one line")
                try:
                    record = orjson.loads(raw)
                except orjson.JSONDecodeError:
                    # orjson takes JSON whitespace around a text; str.strip() takes any whitespace
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    record = orjson.loads(line)
                sample, feature = _parse_record(record, seen_paths)
                if feature is not None:
                    rows += _feature_row(feature, dim)
                    dim = len(feature)
                samples.append(sample)
            except (ValueError, TypeError, OverflowError) as exc:
                reason = f"invalid JSON ({exc.msg})" if isinstance(exc, orjson.JSONDecodeError) else exc
                raise ManifestError(f"{path}:{lineno}: {reason}") from exc
    if not samples:
        raise ManifestError(f"{path}: manifest is empty")
    if dim is None or len(rows) != 8 * dim * len(samples):
        return Manifest(split, samples)
    return Manifest(split, samples, np.frombuffer(rows).reshape(len(samples), dim))


def _unit_rows(feats):
    """Each row divided by its L2 norm.  A row whose squared norm over- or
    underflows (computed norm inf, or 0 with a nonzero entry) is divided by
    its max |value| first; every other row is divided by its norm as
    computed.  An all-zero row raises."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
    odd = ((norms == 0) | (norms == np.inf))[:, 0]
    if not odd.any():
        return feats / norms
    peaks = np.abs(feats[odd]).max(axis=1, keepdims=True, initial=0.0)
    if not peaks.all():
        raise ValueError("zero-norm feature row")
    norms[odd] = 1.0
    unit = feats / norms
    scaled = feats[odd] / peaks  # entries at most 1 in size, one of them exactly
    unit[odd] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    return unit


def pairwise_cosine(queries, gallery):
    """Cosine similarity matrix (Q, G); rows must have nonzero norm."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    return _unit_rows(q) @ _unit_rows(g).T


def _id_arrays(samples):
    """The (vehicle_id, camera_id) arrays of a sample list."""
    return (
        np.array([s.vehicle_id for s in samples], dtype=np.int64),
        np.array([s.camera_id for s in samples], dtype=np.int64),
    )


def apply_protocol_filter(query, gallery):
    """Valid mask over the gallery: same-id same-camera entries are junk."""
    gallery_ids, gallery_cams = _id_arrays(gallery)
    return ~((gallery_ids == query.vehicle_id) & (gallery_cams == query.camera_id))


def _identity_index(gallery_ids):
    """Each gallery identity's positions, ascending, keyed by identity."""
    order = np.argsort(gallery_ids, kind="stable")
    ids, starts = np.unique(gallery_ids[order], return_index=True)
    return dict(zip(ids.tolist(), np.split(order, starts[1:])))


def _positive_ranks(sims, positives, junk, rivals, ranked):
    """Ascending 0-based ranks of the positives among the entries that are
    not junk; rivals (bool) and ranked (float64), as long as sims, are
    scratch space.

    A positive's rank is the number of valid entries with a larger
    similarity, plus the equal ones earlier in gallery order: its place in
    a stable sort by descending similarity.  Only the valid entries at or
    above the lowest positive are sorted; no other entry can precede one.
    """
    x = sims[positives]
    np.greater_equal(sims, x.min(), out=rivals)
    rivals[junk] = False
    ranked = ranked[: np.count_nonzero(rivals)]
    np.compress(rivals, sims, out=ranked)
    ranked.sort()
    above = np.searchsorted(ranked, x, side="right")
    ranks = ranked.size - above
    for i in np.flatnonzero(above - np.searchsorted(ranked, x, side="left") > 1):
        p = positives[i]
        ranks[i] += np.count_nonzero(sims[:p][rivals[:p]] == x[i])
    return np.sort(ranks)


def _ap(ranks):
    """Mean precision at the hits, from their ascending 0-based ranks."""
    return float(((np.arange(ranks.size) + 1.0) / (ranks + 1.0)).mean())


def _cmc(first_hits, max_rank):
    """CMC[r-1] = fraction of 1-based first-hit ranks that are <= r."""
    return np.array([np.mean(first_hits <= r) for r in range(1, max_rank + 1)])


def average_precision(relevance):
    """AP over a ranked binary relevance list: mean precision at hits."""
    positions = np.flatnonzero(np.asarray(relevance, dtype=bool))
    if positions.size == 0:
        raise ValueError("average_precision needs at least one relevant entry")
    return _ap(positions)


def cmc_curve(relevance_lists, max_rank):
    """CMC[r] = fraction of queries whose first hit is at rank <= r."""
    first_hits = []
    for rel in relevance_lists:
        hits = np.flatnonzero(np.asarray(rel, dtype=bool))
        if hits.size == 0:
            raise ValueError("cmc_curve: query without a valid positive")
        first_hits.append(hits[0] + 1)
    return _cmc(np.asarray(first_hits), max_rank)


def _feature_rows(split, feats, samples):
    """Finite 2-d float64 features with exactly one row per sample."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != len(samples):
        raise ValueError(
            f"{split} features of shape {feats.shape} do not give one row "
            f"to each of {len(samples)} samples"
        )
    if not np.isfinite(feats).all():
        raise ValueError(f"{split} features contain non-finite values")
    return feats


def evaluate_features(query_feats, query_samples, gallery_feats, gallery_samples, max_rank=MAX_RANK):
    """Full protocol over precomputed features; equal similarities rank
    in gallery order."""
    if isinstance(max_rank, bool) or not isinstance(max_rank, (int, np.integer)) or max_rank < 1:
        raise ValueError(f"max_rank must be >= 1 (an integer), got {max_rank!r}")
    query_feats = _feature_rows("query", query_feats, query_samples)
    gallery_feats = _feature_rows("gallery", gallery_feats, gallery_samples)
    if query_feats.shape[1] != gallery_feats.shape[1]:
        raise ValueError(f"query and gallery feature dims differ: {query_feats.shape[1]} and {gallery_feats.shape[1]}")
    gallery_t = _unit_rows(gallery_feats).T
    query_unit = _unit_rows(query_feats)
    gallery_ids, gallery_cams = _id_arrays(gallery_samples)
    same_identity = _identity_index(gallery_ids)
    # the results are sized before the buffers and the loop allocates nothing
    # gallery-sized, so no result grows into the heap above freed buffers
    per_query_ap = np.empty(len(query_samples))
    first_hits = np.empty(len(query_samples), dtype=np.int64)
    scored = 0
    # one block buffer, so no two blocks of similarities are ever held at once
    sims = np.empty((min(QUERY_BLOCK, len(query_unit)), len(gallery_samples)))
    rivals, ranked = np.empty(len(gallery_samples), dtype=bool), np.empty(len(gallery_samples))
    for start in range(0, len(query_unit), QUERY_BLOCK):
        block = query_unit[start : start + QUERY_BLOCK]
        np.matmul(block, gallery_t, out=sims[: len(block)])
        for row, query in zip(sims, query_samples[start : start + QUERY_BLOCK]):
            same = same_identity.get(query.vehicle_id)
            if same is None:
                continue
            junk = gallery_cams[same] == query.camera_id
            positives = same[~junk]
            if positives.size == 0:
                continue
            ranks = _positive_ranks(row, positives, same[junk], rivals, ranked)
            per_query_ap[scored] = _ap(ranks)
            first_hits[scored] = ranks[0] + 1
            scored += 1
    if not scored:
        raise ValueError("all queries were skipped; nothing to evaluate")
    per_query_ap, first_hits = per_query_ap[:scored].tolist(), first_hits[:scored]
    max_rank = min(int(max_rank), len(gallery_samples))
    return EvalReport(
        map_score=float(np.mean(per_query_ap)),
        cmc=_cmc(first_hits, max_rank),
        per_query_ap=per_query_ap,
        skipped_queries=len(query_samples) - len(per_query_ap),
        first_hit_ranks=first_hits,
        protocol={
            "junk_rule": "same_id_same_camera",
            "max_rank": max_rank,
            "num_queries": len(query_samples),
            "num_gallery": len(gallery_samples),
        },
    )


def evaluate(query_manifest, gallery_manifest, max_rank=MAX_RANK):
    """Evaluate two manifests carrying precomputed features."""
    return evaluate_features(
        query_manifest.features(),
        query_manifest.samples,
        gallery_manifest.features(),
        gallery_manifest.samples,
        max_rank=max_rank,
    )
