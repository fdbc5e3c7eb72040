"""Output checks.  Each returns None when the output is right, else a
one-line reason.  They take plain arrays and dicts so that
``selftest.py`` can hand them corrupted copies of real outputs."""
from __future__ import annotations

import math

import numpy as np

LOSS_KEYS = ("total", "ce_l1", "ce_h1", "tri_l2", "tri_h2")

# Same process, same inputs, same BLAS thread count: the replay should be
# bit-identical; the slack only absorbs a BLAS that splits work by timing.
REPLAY_RTOL = 1e-5
# The stored reference may come from another CPU whose BLAS kernels sum
# float32 products in another order; six SGD steps stay well inside this.
REFERENCE_RTOL = 1e-3
# A float32 row of unit norm, and the same image run alone, at another
# place in a batch, or in a batch of 32 (different GEMM blocking), agree
# to a few float32 ulps.
UNIT_NORM_ATOL = 1e-5
REEXTRACT_ATOL = 2e-5
# Stored seed-0 feature rows against a fresh extraction, perhaps on another
# CPU: float32 through the whole network in another summation order.  A
# wrong block or attention map moves row entries (about 0.04 each) by far more.
REFERENCE_ATOL = 1e-4
# mAP/CMC/AP from the library and the loop oracle, both float64.
RETRIEVAL_ATOL = 1e-9


def losses_finite(components):
    bad = [k for k in LOSS_KEYS if not math.isfinite(components[k])]
    return f"non-finite loss components {bad}" if bad else None


def trajectory_matches(measured, expected, rtol, what):
    if len(measured) < len(expected):
        return f"{what}: only {len(measured)} steps to compare, need {len(expected)}"
    for step, (got, want) in enumerate(zip(measured, expected)):
        for key in LOSS_KEYS:
            if not math.isclose(got[key], want[key], rel_tol=rtol, abs_tol=0.0):
                return f"{what}: step {step} {key} = {got[key]!r}, expected {want[key]!r} (rtol {rtol})"
    return None


def rows_unit_norm(rows):
    rows = np.asarray(rows)
    if not np.all(np.isfinite(rows)):
        return "feature rows contain non-finite values"
    err = float(np.max(np.abs(np.linalg.norm(rows.astype(np.float64), axis=1) - 1.0)))
    if err > UNIT_NORM_ATOL:
        return f"feature row norm off by {err:.3e} (atol {UNIT_NORM_ATOL})"
    return None


def rows_match(rows, expected_rows, atol, what):
    diff = float(np.max(np.abs(np.asarray(rows, np.float64) - np.asarray(expected_rows, np.float64))))
    if diff > atol:
        return f"{what} rows differ from the expected rows by {diff:.3e} (atol {atol})"
    return None


def report_consistent(report, expected_skipped):
    """The measured report against facts derived without the library."""
    if report.skipped_queries != expected_skipped:
        return f"skipped {report.skipped_queries} queries, expected {expected_skipped}"
    mean_ap = float(np.mean(report.per_query_ap))
    if abs(report.map_score - mean_ap) > RETRIEVAL_ATOL:
        return f"mAP {report.map_score!r} is not the mean per-query AP {mean_ap!r}"
    cmc = np.asarray(report.cmc)
    if np.any(np.diff(cmc) < 0) or cmc[0] < 0 or cmc[-1] > 1:
        return "CMC curve is not a non-decreasing fraction"
    return None


def retrieval_matches_oracle(measured_sub_ap, library_sub, oracle_sub):
    """Query subsample: the measured report's per-query APs, and a library
    run over the subsample, against ``tests/oracles.retrieval_oracle``.

    ``oracle_sub`` is the oracle's (mAP, CMC, skipped) over the subsample.
    """
    o_map, o_cmc, o_skipped = oracle_sub
    m_map = float(np.mean(measured_sub_ap))
    if abs(m_map - o_map) > RETRIEVAL_ATOL:
        return f"measured mAP over the subsample {m_map!r} != oracle {o_map!r}"
    if library_sub.skipped_queries != o_skipped:
        return f"library skipped {library_sub.skipped_queries} of the subsample, oracle {o_skipped}"
    if abs(library_sub.map_score - o_map) > RETRIEVAL_ATOL:
        return f"library mAP over the subsample {library_sub.map_score!r} != oracle {o_map!r}"
    if np.max(np.abs(np.asarray(library_sub.cmc) - np.asarray(o_cmc))) > RETRIEVAL_ATOL:
        return "library CMC over the subsample differs from the oracle"
    if np.max(np.abs(np.asarray(measured_sub_ap) - np.asarray(library_sub.per_query_ap))) > RETRIEVAL_ATOL:
        return "measured per-query AP differs from the library run over the subsample"
    return None
