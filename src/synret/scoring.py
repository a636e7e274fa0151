"""Hierarchy-weighted similarity between caption and video features.

Scores are computed node-by-node per layer; action and entity nodes carry
softmax weights derived from caption-internal similarities, the whole-layer
weight is fixed to 1, and the final score is the plain mean of the three
layer scores. An empty entity layer contributes 0 while the divisor stays 3
(config: empty_layer_policy = "zero").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import softmax, softmax_vjp
from .config import RunConfig
from .dataset import FeatureBundle
from .errors import DataError
from .params import ModelParams
from .pipeline import (
    PairFeatures,
    TextCache,
    TextGrad,
    VideoCache,
    text_forward,
    video_forward,
)

LAYER_COUNT = 3


# ---------------------------------------------------------------------------
# Learned per-node weights (caption-only quantities)
# ---------------------------------------------------------------------------


@dataclass
class WeightCache:
    sim2: np.ndarray  # (n2,)
    w2: np.ndarray    # (n2,)
    sim3: np.ndarray  # (n3,)
    w3: np.ndarray    # (n3,)


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


def text_weights(tc: TextCache) -> WeightCache:
    sim2, w2 = layer2_weights(tc.e1, tc.m2)
    sim3, w3 = layer3_weights(tc.m2, tc.e3, tc.index.parent3, sim2)
    return WeightCache(sim2=sim2, w2=w2, sim3=sim3, w3=w3)


# ---------------------------------------------------------------------------
# Per-pair score assembly
# ---------------------------------------------------------------------------


@dataclass
class ScoreBreakdown:
    score1: float
    score2: np.ndarray  # (n2,)
    score3: np.ndarray  # (n3,)
    sim2: np.ndarray
    sim3: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    layer_scores: tuple[float, float, float]
    final: float


def node_scores(tc: TextCache, pf: PairFeatures):
    score1 = float(tc.e1 @ pf.ev1)
    score2 = (tc.e2 * pf.ev2).sum(axis=1)
    score3 = (tc.e3 * pf.ev3).sum(axis=1)
    return score1, score2, score3


def final_score(score1: float, score2: np.ndarray, score3: np.ndarray,
                wc: WeightCache) -> ScoreBreakdown:
    s1 = score1  # whole-layer weight is fixed to 1
    s2 = float(wc.w2 @ score2)
    s3 = float(wc.w3 @ score3) if score3.size else 0.0
    final = (s1 + s2 + s3) / 3.0
    return ScoreBreakdown(
        score1=score1, score2=score2, score3=score3,
        sim2=wc.sim2, sim3=wc.sim3, w2=wc.w2, w3=wc.w3,
        layer_scores=(s1, s2, s3), final=final,
    )


def score_pair(tc: TextCache, wc: WeightCache, pf: PairFeatures) -> ScoreBreakdown:
    s1, s2, s3 = node_scores(tc, pf)
    return final_score(s1, s2, s3, wc)


def score_pair_backward(final_bar: float, tc: TextCache, wc: WeightCache,
                        pf: PairFeatures, bd: ScoreBreakdown, tg: TextGrad):
    """Backprop final -> (boundary grads on caption projections, pooled-video
    grads). Returns (ev1_bar, ev2_bar); entity-level pooled features carry no
    parameter gradient (frozen patch averages)."""
    lbar = final_bar / 3.0
    n3 = bd.score3.size

    # layer 1
    tg.e1 += lbar * pf.ev1
    ev1_bar = lbar * tc.e1

    # layer 2 weighted sum
    w2_bar = lbar * bd.score2
    score2_bar = lbar * wc.w2
    tg.e2 += score2_bar[:, None] * pf.ev2
    ev2_bar = score2_bar[:, None] * tc.e2

    # layer 3 weighted sum (pooled patch means are constants)
    sim2_bar = softmax_vjp(wc.w2, w2_bar)
    if n3:
        w3_bar = lbar * bd.score3
        score3_bar = lbar * wc.w3
        tg.e3 += score3_bar[:, None] * pf.ev3

        z_bar = softmax_vjp(wc.w3, w3_bar)
        parents = np.asarray(tc.index.parent3)
        np.add.at(sim2_bar, parents, z_bar)
        sim3_bar = z_bar
        # parents may repeat, so scatter-add rather than fancy-index +=
        np.add.at(tg.m2, parents, sim3_bar[:, None] * tc.e3)
        tg.e3 += sim3_bar[:, None] * tc.m2[parents]

    # layer 2 weight similarities
    tg.e1 += sim2_bar @ tc.m2
    tg.m2 += sim2_bar[:, None] * tc.e1

    return ev1_bar, ev2_bar


# ---------------------------------------------------------------------------
# Cross-pair score matrix: one video against every caption at once
# ---------------------------------------------------------------------------


@dataclass
class CaptionStack:
    """Every caption's node features and weights stacked along one axis, with
    the caption that owns each node and, for entities, the stacked row of
    the parent action."""
    e1: np.ndarray       # (T, d)
    e2: np.ndarray       # (A, d) action nodes of all captions
    w2: np.ndarray       # (A,)
    owner2: np.ndarray   # (A,) caption row of each action
    e3: np.ndarray       # (M, d) entity nodes of all captions
    w3: np.ndarray       # (M,)
    owner3: np.ndarray   # (M,) caption row of each entity
    parent3: np.ndarray  # (M,) row of each entity's parent action in e2


def stack_captions(tcs: list[TextCache]) -> CaptionStack:
    wcs = [text_weights(tc) for tc in tcs]
    n2 = [tc.e2.shape[0] for tc in tcs]
    n3 = [tc.e3.shape[0] for tc in tcs]
    first2 = np.cumsum([0] + n2[:-1])
    rows = np.arange(len(tcs))
    return CaptionStack(
        e1=np.stack([tc.e1 for tc in tcs]),
        e2=np.concatenate([tc.e2 for tc in tcs]),
        w2=np.concatenate([wc.w2 for wc in wcs]),
        owner2=np.repeat(rows, n2),
        e3=np.concatenate([tc.e3 for tc in tcs]),
        w3=np.concatenate([wc.w3 for wc in wcs]),
        owner3=np.repeat(rows, n3),
        parent3=np.concatenate([np.asarray(tc.index.parent3, dtype=np.intp) + off
                                for tc, off in zip(tcs, first2)]),
    )


@dataclass
class VideoColumn:
    scores: np.ndarray   # (T,) final score of every caption against the video
    ranked2: np.ndarray  # (A, N_v) action-frame scores, descending
    ranked3: np.ndarray  # (M, min(lambda_frame, N_v), N_p) entity-patch scores
                         # inside the parent's picked frames, descending


def score_video(cs: CaptionStack, vc: VideoCache, cfg: RunConfig) -> VideoColumn:
    """Scores of every stacked caption against one video, equal to
    `score_pair(pair_forward(...))` per caption up to rounding.

    Each layer's node score is an average of dot products, so it is computed
    from one score GEMM per layer without gathering feature rows: e1.ev1 is
    the attention-weighted mean of the frame logits, e2.ev2 the mean of the
    picked frame scores, and e3.ev3 the frame-average of the mean top patch
    scores.
    """
    n_t = cs.e1.shape[0]
    n_v, n_p, d = vc.patches.shape
    k_frame = min(cfg.lambda_frame, n_v)

    logits = cs.e1 @ vc.frames.T
    s1 = (softmax(logits) * logits).sum(axis=1)

    # a stable sort of the negated scores keeps the ties-to-lower-index rule
    frame_scores = cs.e2 @ vc.g.T
    order = np.argsort(-frame_scores, axis=1, kind="stable")
    ranked2 = np.take_along_axis(frame_scores, order, axis=1)
    score2 = ranked2[:, :k_frame].mean(axis=1)

    # only the values of the top patches enter the score, so which of two
    # tied patches is picked does not matter and a plain sort suffices
    patch_scores = (cs.e3 @ vc.patches.reshape(n_v * n_p, d).T).reshape(-1, n_v, n_p)
    picked = order[cs.parent3, :k_frame]
    in_picked = np.take_along_axis(patch_scores, picked[:, :, None], axis=1)
    ranked3 = np.sort(in_picked, axis=2)[:, :, ::-1]
    frame_means = ranked3[:, :, :cfg.lambda_patch].mean(axis=2)
    if cfg.literal_patch_norm:
        score3 = frame_means.sum(axis=1) / cfg.lambda_patch
    else:
        score3 = frame_means.mean(axis=1)

    s2 = np.bincount(cs.owner2, weights=cs.w2 * score2, minlength=n_t)
    s3 = np.bincount(cs.owner3, weights=cs.w3 * score3, minlength=n_t)
    return VideoColumn(scores=(s1 + s2 + s3) / 3.0, ranked2=ranked2, ranked3=ranked3)


def score_matrix(bundles_t: list[FeatureBundle], bundles_v: list[FeatureBundle],
                 params: ModelParams, cfg: RunConfig,
                 threads: int = 1) -> np.ndarray:
    """Rows are captions, columns are videos. Fusion is caption-guided, so
    the matrix is not symmetric even on the diagonal manifest.

    Each video is encoded once and scored against all captions by
    `score_video`. `threads` is still accepted but changes neither speed nor
    output.
    """
    tcs = [text_forward(b, params) for b in bundles_t]
    out = np.zeros((len(tcs), len(bundles_v)))
    if not tcs:
        return out
    cs = stack_captions(tcs)
    for j, b in enumerate(bundles_v):
        out[:, j] = score_video(cs, video_forward(b, params), cfg).scores
    return out


def dsl_postprocess(s: np.ndarray, tau_dsl: float, direction: str = "t2v") -> np.ndarray:
    """Dual-softmax prior weighting of a score matrix before ranking.

    For caption-to-video ranking each entry is multiplied by the softmax of
    its column over captions; the video-to-caption direction mirrors this
    over rows.
    """
    if s.size == 0:
        raise DataError("dsl_postprocess: empty score matrix")
    if direction == "t2v":
        prior = softmax(tau_dsl * s, axis=0)
    elif direction == "v2t":
        prior = softmax(tau_dsl * s, axis=1)
    else:
        raise DataError(f"dsl_postprocess: unknown direction {direction!r}")
    return s * prior
