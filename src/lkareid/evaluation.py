"""Re-identification protocol: manifests, cosine ranking, cross-camera
filtering, mAP and the CMC curve.

Gallery entries sharing both identity and camera with the query are junk
and excluded from ranking; a query left without any valid positive is
skipped and counted, not scored zero.  Equal similarities rank in gallery
order, as a stable sort by descending similarity would place them; only
the positives' ranks are computed.  Features must be finite, 2-d, with
exactly one row per sample.

A manifest line is one RFC 8259 JSON text, decoded by orjson: NaN,
Infinity, numbers that overflow a double and lone surrogate escapes are
invalid JSON.  A manifest feature is a flat list of JSON numbers.  Each is
converted and checked once, as its line is read, into the manifest's
float64 feature matrix; any malformed line, undecodable bytes included,
raises ManifestError with its line number.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

FORMAT_VERSION = 1

# orjson 3.8.3 overflows the C stack, killing the interpreter, on a line
# nested some 150000 deep, so a line with more '[' and '{' than this is
# rejected before it is decoded.  A valid record needs two.
MAX_BRACKETS = 1024

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
            raise ValueError("manifest has samples without precomputed features")
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


def _feature_row(feature, first_row):
    """A finite row of JSON numbers, as long as first_row if one is given."""
    row = np.asarray(feature)
    if row.ndim != 1:
        raise ValueError("feature must be a flat vector")
    # numpy reads JSON true/false among numbers as 1/0, so look for them where a value is 0 or 1
    if row.dtype.kind not in "iuf" or ((row == row.astype(bool)).any() and bool in map(type, feature)):
        raise ValueError("feature values must be JSON numbers")
    if first_row is not None and row.size != first_row.size:
        raise ValueError(f"feature dim {row.size} != {first_row.size}")
    if not np.isfinite(row).all():
        raise ValueError("sample feature contains non-finite values")
    return row


def _parse_record(record, seen_paths, rows):
    """The Sample of one decoded record; its feature row goes to rows."""
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
    sample = Sample(vid, cam, record.get("view_id"), rec_path)
    if feature is not None:
        rows.append(_feature_row(feature, rows[0] if rows else None))
    return sample


def load_manifest(path, split="gallery"):
    """Line-delimited UTF-8 JSON records with path|feature, vehicle_id,
    camera_id, and optional view_id; ids missing from a record are parsed
    from a VeRi-style filename.  Each line is RFC 8259 JSON with at most
    MAX_BRACKETS '[' and '{' in all, a cap that keeps the decoder from
    recursing deep enough to crash.  Ids must be non-negative JSON integers
    (view_id may also be null).  Features are stacked into the manifest's
    float64 matrix when every record has one.  Any defect in a line
    raises ManifestError naming the file and line."""
    samples, rows, seen_paths = [], [], set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                if line.count("[") + line.count("{") > MAX_BRACKETS:
                    raise ValueError(f"more than {MAX_BRACKETS} '[' and '{{' in one line")
                samples.append(_parse_record(orjson.loads(line), seen_paths, rows))
            except (ValueError, TypeError) as exc:
                reason = f"invalid JSON ({exc.msg})" if isinstance(exc, orjson.JSONDecodeError) else exc
                raise ManifestError(f"{path}:{lineno}: {reason}") from exc
    if not samples:
        raise ManifestError(f"{path}: manifest is empty")
    matrix = np.stack(rows, dtype=np.float64) if len(rows) == len(samples) else None
    return Manifest(split, samples, matrix)


def pairwise_cosine(queries, gallery):
    """Cosine similarity matrix (Q, G); rows must have nonzero norm."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    gn = np.linalg.norm(g, axis=1, keepdims=True)
    if np.any(qn == 0) or np.any(gn == 0):
        raise ValueError("zero-norm feature row")
    return (q / qn) @ (g / gn).T


def _id_arrays(samples):
    """The (vehicle_id, camera_id) arrays of a sample list."""
    return (
        np.array([s.vehicle_id for s in samples], dtype=np.int64),
        np.array([s.camera_id for s in samples], dtype=np.int64),
    )


def _junk(vehicle_id, camera_id, gallery_ids, gallery_cams):
    """The junk rule: gallery entries sharing both identity and camera."""
    return (gallery_ids == vehicle_id) & (gallery_cams == camera_id)


def apply_protocol_filter(query, gallery):
    """Valid mask over the gallery: same-id same-camera entries are junk."""
    return ~_junk(query.vehicle_id, query.camera_id, *_id_arrays(gallery))


def _positive_ranks(sims, valid, positives):
    """Ascending 0-based ranks of the positives among the valid entries.

    A positive's rank is the number of valid entries with a larger
    similarity, plus the equal ones earlier in gallery order: its place in
    a stable sort by descending similarity.
    """
    ranked = np.sort(sims[valid])
    x = sims[positives]
    above = np.searchsorted(ranked, x, side="right")
    ranks = ranked.size - above
    for i in np.flatnonzero(above - np.searchsorted(ranked, x, side="left") > 1):
        p = positives[i]
        ranks[i] += np.count_nonzero(sims[:p][valid[:p]] == x[i])
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


def evaluate_features(query_feats, query_samples, gallery_feats, gallery_samples, max_rank=10):
    """Full protocol over precomputed features; equal similarities rank
    in gallery order."""
    if max_rank < 1:
        raise ValueError(f"max_rank must be >= 1, got {max_rank}")
    query_feats = _feature_rows("query", query_feats, query_samples)
    gallery_feats = _feature_rows("gallery", gallery_feats, gallery_samples)
    if query_feats.shape[1] != gallery_feats.shape[1]:
        raise ValueError("query and gallery feature dims differ")
    sims = pairwise_cosine(query_feats, gallery_feats)
    gallery_ids, gallery_cams = _id_arrays(gallery_samples)
    per_query_ap = []
    first_hits = []
    for row, query in zip(sims, query_samples):
        valid = ~_junk(query.vehicle_id, query.camera_id, gallery_ids, gallery_cams)
        positives = np.flatnonzero(valid & (gallery_ids == query.vehicle_id))
        if positives.size == 0:
            continue
        ranks = _positive_ranks(row, valid, positives)
        per_query_ap.append(_ap(ranks))
        first_hits.append(ranks[0] + 1)
    if not first_hits:
        raise ValueError("all queries were skipped; nothing to evaluate")
    first_hits = np.asarray(first_hits)
    max_rank = min(max_rank, len(gallery_samples))
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


def evaluate(query_manifest, gallery_manifest, max_rank=10):
    """Evaluate two manifests carrying precomputed features."""
    return evaluate_features(
        query_manifest.features(),
        query_manifest.samples,
        gallery_manifest.features(),
        gallery_manifest.samples,
        max_rank=max_rank,
    )
