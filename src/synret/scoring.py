"""Hierarchy-weighted similarity between caption and video features.

Scores are computed node-by-node per layer; action and entity nodes carry
softmax weights derived from caption-internal similarities, the whole-layer
weight is fixed to 1, and the final score is the plain mean of the three
layer scores. An empty entity layer contributes 0 while the divisor stays 3
(config: empty_layer_policy = "zero").
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .blocks import softmax
from .config import RunConfig
from .dataset import FeatureBundle
from .errors import DataError
from .params import ModelParams
from .pipeline import (
    ENCODE_CHUNK,
    Caption,
    PairFeatures,
    TextCache,
    TextGrad,
    Video,
    text_forward,
    video_forward,
)

LAYER_COUNT = 3


# ---------------------------------------------------------------------------
# Learned per-node weights (caption-only quantities)
# ---------------------------------------------------------------------------


@dataclass
class WeightCache:
    """Node weights, stacked like the nodes they weight (one caption's nodes
    for a Caption, every caption's for a TextCache)."""
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


def caption_weights(cap: Caption) -> WeightCache:
    sim2, w2 = layer2_weights(cap.e1, cap.m2)
    sim3, w3 = layer3_weights(cap.m2, cap.e3, cap.index.parent3, sim2)
    return WeightCache(sim2=sim2, w2=w2, sim3=sim3, w3=w3)


def text_weights(tc: TextCache) -> WeightCache:
    """Every caption's weights (a softmax per caption), stacked."""
    wcs = [caption_weights(tc.caption(i)) for i in range(len(tc.indexes))]
    return WeightCache(*(np.concatenate([getattr(wc, f.name) for wc in wcs])
                         for f in fields(WeightCache)))


def _segment_softmax_vjp(y: np.ndarray, ybar: np.ndarray, owner: np.ndarray,
                         n: int) -> np.ndarray:
    """softmax_vjp applied to each caption's segment of stacked weights."""
    inner = np.bincount(owner, weights=y * ybar, minlength=n)
    return y * (ybar - inner[owner])


def text_weights_backward(tg: TextGrad, tc: TextCache, wc: WeightCache) -> None:
    """Folds the weight gradients tg.w2/tg.w3, summed over every video, into
    tg.e1, tg.m2 and tg.e3."""
    n_t = tc.e1.shape[0]
    sim2_bar = _segment_softmax_vjp(wc.w2, tg.w2, tc.owner2, n_t)
    if tc.e3.shape[0]:
        # w3 = softmax(sim2[parent] + sim3) with sim3 = m2[parent] . e3;
        # parents repeat, so scatter-add rather than fancy-index +=
        z_bar = _segment_softmax_vjp(wc.w3, tg.w3, tc.owner3, n_t)
        np.add.at(sim2_bar, tc.parent3, z_bar)
        np.add.at(tg.m2, tc.parent3, z_bar[:, None] * tc.e3)
        tg.e3 += z_bar[:, None] * tc.m2[tc.parent3]
    # sim2 = m2 . e1 of the owning caption
    np.add.at(tg.e1, tc.owner2, sim2_bar[:, None] * tc.m2)
    tg.m2 += sim2_bar[:, None] * tc.e1[tc.owner2]


# ---------------------------------------------------------------------------
# Per-pair score assembly (the reference path)
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


# ---------------------------------------------------------------------------
# Cross scoring: one video against every caption at once
# ---------------------------------------------------------------------------


@dataclass
class VideoColumn:
    scores: np.ndarray   # (T,) final score of every caption against the video
    logits: np.ndarray   # (T, N_v) caption-frame logits of layer 1
    order2: np.ndarray   # (A, N_v) frames by descending action-frame score
    ranked2: np.ndarray  # (A, N_v) those scores
    score2: np.ndarray   # (A,) action node scores
    order3: np.ndarray   # (M, min(lambda_frame, N_v), N_p) patches inside the
                         # parent's picked frames by descending entity-patch score
    ranked3: np.ndarray  # (M, min(lambda_frame, N_v), N_p) those scores
    score3: np.ndarray   # (M,) entity node scores


def score_video(tc: TextCache, wc: WeightCache, vid: Video, cfg: RunConfig) -> VideoColumn:
    """Scores of every stacked caption against one video, equal to
    `score_pair(pair_forward(...))` per caption up to rounding.

    Each node score is an average of dot products, so it is computed from
    score GEMMs without gathering feature rows: e1.ev1 is the
    attention-weighted mean of the frame logits, e2.ev2 the mean of the
    picked frame scores, and e3.ev3 the frame-average of the mean top patch
    scores. Patches are scored only inside the frames each entity's parent
    action picked, with one GEMM per frame over the entities that picked it.
    A stable sort of the negated scores keeps the ties-to-lower-index rule
    for frames and patches.
    """
    n_t = tc.e1.shape[0]
    n_v, n_p, _ = vid.patches.shape
    k_frame = min(cfg.lambda_frame, n_v)

    logits = tc.e1 @ vid.frames.T
    s1 = (softmax(logits) * logits).sum(axis=1)

    frame_scores = tc.e2 @ vid.g.T
    order2 = np.argsort(-frame_scores, axis=1, kind="stable")
    ranked2 = np.take_along_axis(frame_scores, order2, axis=1)
    score2 = ranked2[:, :k_frame].mean(axis=1)

    picked = order2[tc.parent3, :k_frame]
    in_picked = np.empty((picked.shape[0], k_frame, n_p))
    for j in range(n_v):
        ent, slot = np.nonzero(picked == j)
        if ent.size:
            in_picked[ent, slot] = tc.e3[ent] @ vid.patches[j].T
    order3 = np.argsort(-in_picked, axis=2, kind="stable")
    ranked3 = np.take_along_axis(in_picked, order3, axis=2)
    frame_means = ranked3[:, :, :cfg.lambda_patch].mean(axis=2)
    if cfg.literal_patch_norm:
        score3 = frame_means.sum(axis=1) / cfg.lambda_patch
    else:
        score3 = frame_means.mean(axis=1)

    s2 = np.bincount(tc.owner2, weights=wc.w2 * score2, minlength=n_t)
    s3 = np.bincount(tc.owner3, weights=wc.w3 * score3, minlength=n_t)
    return VideoColumn(scores=(s1 + s2 + s3) / 3.0, logits=logits, order2=order2,
                       ranked2=ranked2, score2=score2, order3=order3, ranked3=ranked3,
                       score3=score3)


def score_video_backward(s_bar: np.ndarray, tc: TextCache, wc: WeightCache, vid: Video,
                         col: VideoColumn, cfg: RunConfig, tg: TextGrad,
                         g_bar: np.ndarray) -> None:
    """Adds the gradient of one column of scores, s_bar = dloss/ds[:, j], to
    the stacked caption gradients `tg` and to this video's temporal-encoding
    gradient `g_bar`, using the forward pass's frame and patch selections.
    Patch rows are frozen inputs, so layer 3 reaches only e3 and w3."""
    lbar = s_bar / 3.0
    n_v, n_p, d = vid.patches.shape
    k_frame = min(cfg.lambda_frame, n_v)

    # layer 1: s1 = a . l with a = softmax(l), so ds1/dl = a * (1 + l - s1)
    a = softmax(col.logits)
    s1 = (a * col.logits).sum(axis=1)
    tg.e1 += (lbar[:, None] * a * (1.0 + col.logits - s1[:, None])) @ vid.frames

    # layer 2: e2 . (mean of the picked frames' g rows)
    picked2 = col.order2[:, :k_frame]
    c2 = lbar[tc.owner2] * wc.w2
    tg.e2 += c2[:, None] * vid.g[picked2].mean(axis=1)
    np.add.at(g_bar, picked2, (c2 / k_frame)[:, None, None] * tc.e2[:, None, :])
    tg.w2 += lbar[tc.owner2] * col.score2

    # layer 3: e3 . (average of the picked patch rows)
    if tc.e3.shape[0]:
        k_patch = min(cfg.lambda_patch, n_p)
        frames3 = col.order2[tc.parent3, :k_frame]
        rows = frames3[:, :, None] * n_p + col.order3[:, :, :k_patch]
        norm = cfg.lambda_patch if cfg.literal_patch_norm else k_frame
        ev3 = vid.patches.reshape(n_v * n_p, d)[rows].sum(axis=(1, 2)) / (k_patch * norm)
        tg.e3 += (lbar[tc.owner3] * wc.w3)[:, None] * ev3
        tg.w3 += lbar[tc.owner3] * col.score3


def score_matrix(bundles_t: list[FeatureBundle], bundles_v: list[FeatureBundle],
                 params: ModelParams, cfg: RunConfig,
                 threads: int = 1) -> np.ndarray:
    """Rows are captions, columns are videos. Fusion is caption-guided, so
    the matrix is not symmetric even on the diagonal manifest.

    Captions are encoded in one batch, videos in chunks of ENCODE_CHUNK, and
    each video is scored against all captions by `score_video`. `threads` is
    still accepted but changes neither speed nor output.
    """
    out = np.zeros((len(bundles_t), len(bundles_v)))
    if not bundles_t:
        return out
    tc = text_forward(bundles_t, params)
    tc.drop_backward_caches()
    wc = text_weights(tc)
    for lo in range(0, len(bundles_v), ENCODE_CHUNK):
        # only the encoded videos are kept, not the temporal layer's backward cache
        videos = video_forward(bundles_v[lo:lo + ENCODE_CHUNK], params).videos
        for j, vid in enumerate(videos, start=lo):
            out[:, j] = score_video(tc, wc, vid, cfg).scores
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
