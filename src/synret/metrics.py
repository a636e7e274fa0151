"""Retrieval quality metrics over a score matrix.

Ground truth is the equal index: caption i matches video i. The rank of the
true item counts only strictly greater scores, so ties resolve in favor of
the true item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

R_AT_KS = (1, 5, 10)


@dataclass
class RetrievalMetrics:
    r_at: dict[int, float]  # K -> percentage in [0, 100]
    mdr: float              # median rank (lower middle for even counts)
    meanr: float

    def to_dict(self) -> dict:
        out = {f"r{k}": self.r_at[k] for k in sorted(self.r_at)}
        out["mdr"] = self.mdr
        out["meanr"] = self.meanr
        return out


def true_item_ranks(s: np.ndarray, direction: str) -> np.ndarray:
    """1-based rank of the matching item for every query in the direction."""
    if s.ndim != 2 or s.size == 0:
        raise DataError("score matrix must be non-empty and 2-D")
    n_t, n_v = s.shape
    if direction == "t2v":
        if n_t > n_v:
            raise DataError("t2v ranks need a matching video column for every caption row")
        diag = s[np.arange(n_t), np.arange(n_t)]
        return 1 + (s[:n_t] > diag[:, None]).sum(axis=1)
    if direction == "v2t":
        if n_v > n_t:
            raise DataError("v2t ranks need a matching caption row for every video column")
        diag = s[np.arange(n_v), np.arange(n_v)]
        return 1 + (s[:, :n_v] > diag[None, :]).sum(axis=0)
    raise DataError(f"unknown direction {direction!r}")


def compute_metrics(s: np.ndarray, direction: str) -> RetrievalMetrics:
    ranks = true_item_ranks(s, direction)
    n = ranks.size
    r_at = {k: 100.0 * float((ranks <= k).sum()) / n for k in R_AT_KS}
    sorted_ranks = np.sort(ranks)
    mdr = float(sorted_ranks[(n - 1) // 2])
    meanr = float(ranks.mean())
    return RetrievalMetrics(r_at=r_at, mdr=mdr, meanr=meanr)


def evaluate_matrix(s_t2v: np.ndarray, s_v2t: np.ndarray | None = None) -> dict:
    """Both directions plus their aggregated recall sum (square matrices only).

    Each direction ranks its own matrix, so a direction-specific
    post-processing such as the dual-softmax prior can be passed per
    direction; `s_v2t` defaults to `s_t2v`.
    """
    if s_v2t is None:
        s_v2t = s_t2v
    for s in (s_t2v, s_v2t):
        if s.shape[0] != s.shape[1]:
            raise DataError("aggregated recall sum needs a square score matrix")
    t2v = compute_metrics(s_t2v, "t2v")
    v2t = compute_metrics(s_v2t, "v2t")
    rsum = sum(t2v.r_at.values()) + sum(v2t.r_at.values())
    return {"t2v": t2v.to_dict(), "v2t": v2t.to_dict(), "rsum": rsum}
