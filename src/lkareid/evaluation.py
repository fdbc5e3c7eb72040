"""Re-identification protocol: manifests, cosine ranking, cross-camera
filtering, mAP and the CMC curve.

Gallery entries sharing both identity and camera with the query are junk
and excluded from ranking; a query left without any valid positive is
skipped and counted, not scored zero.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

FORMAT_VERSION = 1

_VERI_NAME = re.compile(r"^(\d+)_c(\d+)[_.]")


class ManifestError(ValueError):
    """Malformed manifest file; message carries the offending line number."""


def _id(name, value):
    """A non-negative integer id; bools, floats and strings are rejected,
    not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


@dataclass
class Sample:
    vehicle_id: int
    camera_id: int
    view_id: int | None = None
    path: str | None = None
    feature: np.ndarray | None = None

    def __post_init__(self):
        self.vehicle_id = _id("vehicle_id", self.vehicle_id)
        self.camera_id = _id("camera_id", self.camera_id)
        if self.view_id is not None:
            self.view_id = _id("view_id", self.view_id)
        if self.feature is not None:
            self.feature = np.asarray(self.feature, dtype=np.float64)
            if not np.all(np.isfinite(self.feature)):
                raise ValueError("sample feature contains non-finite values")


@dataclass
class Manifest:
    split: str
    samples: list

    def __post_init__(self):
        if self.split not in ("query", "gallery", "train"):
            raise ValueError(f"unknown split {self.split!r}")
        if not self.samples:
            raise ValueError("manifest must not be empty")

    def features(self):
        feats = [s.feature for s in self.samples]
        if any(f is None for f in feats):
            raise ValueError("manifest has samples without precomputed features")
        return np.stack(feats)


@dataclass
class EvalReport:
    map_score: float
    cmc: np.ndarray  # cmc[r-1] = CMC at rank r
    per_query_ap: list
    skipped_queries: int
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


def load_manifest(path, split="gallery"):
    """Line-delimited JSON records with path|feature, vehicle_id,
    camera_id, and optional view_id; ids missing from a record are parsed
    from a VeRi-style filename.  Ids must be non-negative JSON integers
    (view_id may also be null)."""
    samples = []
    seen_paths = set()
    feature_dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ManifestError(f"{path}:{lineno}: record must be a JSON object")
            rec_path = record.get("path")
            feature = record.get("feature")
            if rec_path is None and feature is None:
                raise ManifestError(f"{path}:{lineno}: record needs 'path' or 'feature'")
            if rec_path is not None:
                if not isinstance(rec_path, str):
                    raise ManifestError(f"{path}:{lineno}: path must be a string")
                if rec_path in seen_paths:
                    raise ManifestError(f"{path}:{lineno}: duplicate path {rec_path!r}")
                seen_paths.add(rec_path)
            try:
                if "vehicle_id" in record and "camera_id" in record:
                    vid, cam = record["vehicle_id"], record["camera_id"]
                elif rec_path is None:
                    raise ValueError("a record without a path needs vehicle_id and camera_id")
                else:
                    vid, cam = parse_veri_name(rec_path)
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from exc
            if feature is not None:
                feature = np.asarray(feature, dtype=np.float64)
                if feature.ndim != 1:
                    raise ManifestError(f"{path}:{lineno}: feature must be a flat vector")
                if feature_dim is None:
                    feature_dim = feature.size
                elif feature.size != feature_dim:
                    raise ManifestError(
                        f"{path}:{lineno}: feature dim {feature.size} != {feature_dim}"
                    )
            try:
                samples.append(
                    Sample(
                        vehicle_id=vid,
                        camera_id=cam,
                        view_id=record.get("view_id"),
                        path=rec_path,
                        feature=feature,
                    )
                )
            except ValueError as exc:
                raise ManifestError(f"{path}:{lineno}: {exc}") from exc
    if not samples:
        raise ManifestError(f"{path}: manifest is empty")
    return Manifest(split=split, samples=samples)


def pairwise_cosine(queries, gallery):
    """Cosine similarity matrix (Q, G); rows must have nonzero norm."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    gn = np.linalg.norm(g, axis=1, keepdims=True)
    if np.any(qn == 0) or np.any(gn == 0):
        raise ValueError("zero-norm feature row")
    return (q / qn) @ (g / gn).T


def apply_protocol_filter(query, gallery):
    """Valid mask over the gallery: same-id same-camera entries are junk."""
    mask = np.ones(len(gallery), dtype=bool)
    for i, s in enumerate(gallery):
        if s.vehicle_id == query.vehicle_id and s.camera_id == query.camera_id:
            mask[i] = False
    return mask


def average_precision(relevance):
    """AP over a ranked binary relevance list: mean precision at hits."""
    rel = np.asarray(relevance, dtype=bool)
    n_rel = int(rel.sum())
    if n_rel == 0:
        raise ValueError("average_precision needs at least one relevant entry")
    positions = np.nonzero(rel)[0]
    precisions = (np.arange(n_rel) + 1.0) / (positions + 1.0)
    return float(precisions.mean())


def cmc_curve(relevance_lists, max_rank):
    """CMC[r] = fraction of queries whose first hit is at rank <= r."""
    first_hits = []
    for rel in relevance_lists:
        rel = np.asarray(rel, dtype=bool)
        hits = np.nonzero(rel)[0]
        if hits.size == 0:
            raise ValueError("cmc_curve: query without a valid positive")
        first_hits.append(hits[0] + 1)
    first_hits = np.asarray(first_hits)
    return np.array([np.mean(first_hits <= r) for r in range(1, max_rank + 1)])


def evaluate_features(query_feats, query_samples, gallery_feats, gallery_samples, max_rank=10):
    """Full protocol over precomputed features; ties broken by stable
    gallery order."""
    query_feats = np.asarray(query_feats, dtype=np.float64)
    gallery_feats = np.asarray(gallery_feats, dtype=np.float64)
    if query_feats.shape[1] != gallery_feats.shape[1]:
        raise ValueError("query and gallery feature dims differ")
    sims = pairwise_cosine(query_feats, gallery_feats)
    per_query_ap = []
    relevance_lists = []
    skipped = 0
    gallery_ids = np.array([s.vehicle_id for s in gallery_samples])
    for qi, query in enumerate(query_samples):
        valid = apply_protocol_filter(query, gallery_samples)
        valid_pos = np.nonzero(valid)[0]
        order = valid_pos[np.argsort(-sims[qi, valid_pos], kind="stable")]
        rel = gallery_ids[order] == query.vehicle_id
        if not rel.any():
            skipped += 1
            continue
        per_query_ap.append(average_precision(rel))
        relevance_lists.append(rel)
    if not relevance_lists:
        raise ValueError("all queries were skipped; nothing to evaluate")
    max_rank = min(max_rank, len(gallery_samples))
    return EvalReport(
        map_score=float(np.mean(per_query_ap)),
        cmc=cmc_curve(relevance_lists, max_rank),
        per_query_ap=per_query_ap,
        skipped_queries=skipped,
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
