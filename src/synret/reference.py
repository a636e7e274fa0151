"""The per-pair reference path: the oracle the production kernel is tested against.

One caption against one video, written as directly as the method reads:
`pair_forward` pools the frames under the caption's attention, lets each
action node pick its top frames with `top_k_indices` and average them, and
lets each entity node pick top patches inside its parent action's frames;
`score_pair` then weights the node scores per layer with `caption_weights`.
Production code computes the same quantities for every caption at once in
`scoring.score_video`, and the tests, `selfcheck`'s checks and the
differential property tests compare it against this module. No CLI command
other than `selfcheck` calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import AttendCache, dot_softmax_attend, softmax
from .config import RunConfig
from .errors import DataError
from .pipeline import Caption, Video
from .scoring import WeightCache


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ties to the lower index, returned
    sorted ascending. Selects everything when k >= len(scores)."""
    if k < 1:
        raise DataError(f"top_k_indices: k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise DataError("top_k_indices: empty score list")
    if k >= scores.size:
        return np.arange(scores.size)
    order = np.argsort(-scores, kind="stable")[:k]
    return np.sort(order)


# ---------------------------------------------------------------------------
# Caption-guided video hierarchy for one (caption, video) pair
# ---------------------------------------------------------------------------


@dataclass
class PairFeatures:
    alpha_cls: np.ndarray       # (N_v,) global attention weights
    ev1: np.ndarray             # (d,)
    attend_cache: AttendCache
    psi2: list[np.ndarray]      # per action: selected frame indices
    ev2: np.ndarray             # (n2, d)
    psi3: list[list[np.ndarray]]   # per entity: selected patch indices per picked frame
    ev3_frames: list[np.ndarray]   # per entity: (n_sel_frames, d) per-frame patch means
    ev3: np.ndarray             # (n3, d)


def fuse_global(e1: np.ndarray, frames: np.ndarray):
    """Caption-conditioned pooling of raw frame features."""
    return dot_softmax_attend(e1, frames, frames)


def fuse_actions(e2: np.ndarray, g: np.ndarray, lambda_frame: int):
    """Each action node picks its top frames from the temporal encoding and
    averages them."""
    n2 = e2.shape[0]
    scores = e2 @ g.T
    psi2 = [top_k_indices(scores[i], lambda_frame) for i in range(n2)]
    ev2 = np.stack([g[sel].mean(axis=0) for sel in psi2]) if n2 else np.zeros((0, g.shape[1]))
    return psi2, ev2


def fuse_entities(e3: np.ndarray, patches: np.ndarray, parent3: list[int],
                  psi2: list[np.ndarray], lambda_patch: int,
                  literal_patch_norm: bool = False):
    """Each entity node picks top patches inside the frames selected by its
    parent action, averages per frame, then averages across those frames.
    Each picked frame's patches are widened to float64 before use.

    literal_patch_norm replaces the across-frame mean with a fixed
    1/lambda_patch normalizer.
    """
    n3 = e3.shape[0]
    d = patches.shape[2]
    psi3: list[list[np.ndarray]] = []
    ev3_frames: list[np.ndarray] = []
    ev3 = np.zeros((n3, d))
    for i in range(n3):
        sel_frames = psi2[parent3[i]]
        per_frame_sel: list[np.ndarray] = []
        means = np.zeros((len(sel_frames), d))
        for jj, j in enumerate(sel_frames):
            frame = patches[j].astype(np.float64)
            sel = top_k_indices(frame @ e3[i], lambda_patch)
            per_frame_sel.append(sel)
            means[jj] = frame[sel].mean(axis=0)
        psi3.append(per_frame_sel)
        ev3_frames.append(means)
        if literal_patch_norm:
            ev3[i] = means.sum(axis=0) / lambda_patch
        else:
            ev3[i] = means.mean(axis=0)
    return psi3, ev3_frames, ev3


def pair_forward(cap: Caption, vid: Video, cfg: RunConfig) -> PairFeatures:
    """One caption against one video."""
    alpha_cls, ev1, attend_cache = fuse_global(cap.e1, vid.frames)
    psi2, ev2 = fuse_actions(cap.e2, vid.g, cfg.lambda_frame)
    psi3, ev3_frames, ev3 = fuse_entities(
        cap.e3, vid.patches, cap.index.parent3, psi2, cfg.lambda_patch,
        cfg.literal_patch_norm,
    )
    return PairFeatures(
        alpha_cls=alpha_cls, ev1=ev1, attend_cache=attend_cache,
        psi2=psi2, ev2=ev2, psi3=psi3, ev3_frames=ev3_frames, ev3=ev3,
    )


# ---------------------------------------------------------------------------
# Learned per-node weights of one caption
# ---------------------------------------------------------------------------


def layer2_weights(e1: np.ndarray, m2: np.ndarray):
    """Action weights from overall-node vs projected-action similarity."""
    sim2 = m2 @ e1
    return sim2, softmax(sim2)


def layer3_weights(m2: np.ndarray, e3: np.ndarray, parent3: list[int],
                   sim2: np.ndarray):
    """Entity weights couple the parent action's importance with the
    entity-action association."""
    if e3.shape[0] == 0:
        return np.zeros(0), np.zeros(0)
    parents = np.asarray(parent3)
    sim3 = (m2[parents] * e3).sum(axis=1)
    return sim3, softmax(sim2[parents] + sim3)


def caption_weights(cap: Caption) -> WeightCache:
    sim2, w2 = layer2_weights(cap.e1, cap.m2)
    sim3, w3 = layer3_weights(cap.m2, cap.e3, cap.index.parent3, sim2)
    return WeightCache(sim2=sim2, w2=w2, sim3=sim3, w3=w3)


# ---------------------------------------------------------------------------
# Per-pair score assembly
# ---------------------------------------------------------------------------


@dataclass
class ScoreBreakdown:
    score1: float
    score2: np.ndarray  # (n2,)
    score3: np.ndarray  # (n3,)
    layer_scores: tuple[float, float, float]
    final: float


def node_scores(cap: Caption, pf: PairFeatures):
    score1 = float(cap.e1 @ pf.ev1)
    score2 = (cap.e2 * pf.ev2).sum(axis=1)
    score3 = (cap.e3 * pf.ev3).sum(axis=1)
    return score1, score2, score3


def final_score(score1: float, score2: np.ndarray, score3: np.ndarray,
                wc: WeightCache) -> ScoreBreakdown:
    s1 = score1  # whole-layer weight is fixed to 1
    s2 = float(wc.w2 @ score2)
    s3 = float(wc.w3 @ score3) if score3.size else 0.0
    final = (s1 + s2 + s3) / 3.0
    return ScoreBreakdown(score1=score1, score2=score2, score3=score3,
                          layer_scores=(s1, s2, s3), final=final)


def score_pair(cap: Caption, wc: WeightCache, pf: PairFeatures) -> ScoreBreakdown:
    s1, s2, s3 = node_scores(cap, pf)
    return final_score(s1, s2, s3, wc)
