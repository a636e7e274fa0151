"""Hierarchy-weighted similarity between caption and video features.

Scores are computed node-by-node per layer; action and entity nodes carry
softmax weights derived from caption-internal similarities, the whole-layer
weight is fixed to 1, and the final score is the plain mean of the three
layer scores. An empty entity layer contributes 0 while the divisor stays 3
(config: empty_layer_policy = "zero").

`score_video` is the one place where frames and patches are selected:
scoring, training and the `fuse` command (through `fuse_pair`) all read
its selections. The per-pair oracle it is tested against is
`synret.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import softmax
from .config import RunConfig
from .dataset import FeatureBundle
from .errors import DataError
from .params import ModelParams
from .pipeline import (
    ENCODE_CHUNK,
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


def _segment_softmax(z: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """softmax applied to each caption's segment of stacked values."""
    top = np.full(n, -np.inf)
    np.maximum.at(top, owner, z)
    e = np.exp(z - top[owner])
    return e / np.bincount(owner, weights=e, minlength=n)[owner]


def text_weights(tc: TextCache) -> WeightCache:
    """Every caption's node weights, stacked. Action weights are a softmax
    over the caption's actions of sim2 = m2 . e1; entity weights couple the
    parent action's sim2 with the entity-action association sim3 = m2 . e3."""
    n_t = tc.e1.shape[0]
    sim2 = (tc.m2 * tc.e1[tc.owner2]).sum(axis=1)
    sim3 = (tc.m2[tc.parent3] * tc.e3).sum(axis=1)
    return WeightCache(sim2=sim2, w2=_segment_softmax(sim2, tc.owner2, n_t), sim3=sim3,
                       w3=_segment_softmax(sim2[tc.parent3] + sim3, tc.owner3, n_t))


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
    """Scores of every stacked caption against one video, equal per caption
    to the per-pair oracle in `synret.reference` up to rounding.

    Each node score is an average of dot products, so it is computed from
    score GEMMs without gathering feature rows: e1.ev1 is the
    attention-weighted mean of the frame logits, e2.ev2 the mean of the
    picked frame scores, and e3.ev3 the frame-average of the mean top patch
    scores. Patches are scored only inside the frames each entity's parent
    action picked, with one GEMM per frame over the entities that picked it,
    on a float64 copy of that frame's patches.
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
            # widened first: a float32 operand in `@` rounds differently
            in_picked[ent, slot] = tc.e3[ent] @ vid.patches[j].astype(np.float64).T
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
    Patch rows are frozen inputs, so layer 3 reaches only e3 and w3; only the
    picked rows are widened to float64."""
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
        picked3 = vid.patches.reshape(n_v * n_p, d)[rows].astype(np.float64)
        ev3 = picked3.sum(axis=(1, 2)) / (k_patch * norm)
        tg.e3 += (lbar[tc.owner3] * wc.w3)[:, None] * ev3
        tg.w3 += lbar[tc.owner3] * col.score3


@dataclass
class FusedPair:
    """One caption's video-side features against one video."""
    ev1: np.ndarray   # (d,) raw frames pooled by the caption's frame attention
    ev2: np.ndarray   # (n2, d) per action: mean of its picked frames' g rows
    ev3: np.ndarray   # (n3, d) per entity: across-frame mean of per-frame patch means
    frame_selection: list[np.ndarray]        # per action: picked frames, ascending
    patch_selection: list[list[np.ndarray]]  # per entity, per picked frame in ascending
                                             # order: picked patches, ascending


def fuse_pair(tc: TextCache, vid: Video, cfg: RunConfig) -> FusedPair:
    """The fused features of the one caption stacked in `tc` against `vid`,
    built from `score_video`'s logits and selections, so they select exactly
    as scoring and training do. Picked patch rows are widened to float64."""
    col = score_video(tc, text_weights(tc), vid, cfg)
    n_v, n_p, d = vid.patches.shape
    k_frame, k_patch = min(cfg.lambda_frame, n_v), min(cfg.lambda_patch, n_p)
    frames2 = np.sort(col.order2[:, :k_frame], axis=1)
    ev3 = np.zeros((tc.e3.shape[0], d))
    patch_selection = []
    for i, picked in enumerate(col.order2[tc.parent3, :k_frame]):
        slots = np.argsort(picked)
        sels = [np.sort(col.order3[i, s, :k_patch]) for s in slots]
        means = np.stack([vid.patches[j, sel].astype(np.float64).mean(axis=0)
                          for j, sel in zip(picked[slots], sels)])
        if cfg.literal_patch_norm:
            ev3[i] = means.sum(axis=0) / cfg.lambda_patch
        else:
            ev3[i] = means.mean(axis=0)
        patch_selection.append(sels)
    return FusedPair(ev1=softmax(col.logits[0]) @ vid.frames, ev2=vid.g[frames2].mean(axis=1),
                     ev3=ev3, frame_selection=list(frames2), patch_selection=patch_selection)


def score_matrix(bundles_t: list[FeatureBundle], bundles_v: list[FeatureBundle],
                 params: ModelParams, cfg: RunConfig) -> np.ndarray:
    """Rows are captions, columns are videos. Fusion is caption-guided, so
    the matrix is not symmetric even on the diagonal manifest.

    Captions and videos are encoded in chunks of ENCODE_CHUNK, and each
    video is scored against all captions by `score_video`. Each caption
    chunk's backward caches are dropped before the next chunk is encoded.
    """
    out = np.zeros((len(bundles_t), len(bundles_v)))
    if not bundles_t:
        return out
    parts = []
    for lo in range(0, len(bundles_t), ENCODE_CHUNK):
        parts.append(text_forward(bundles_t[lo:lo + ENCODE_CHUNK], params))
        parts[-1].drop_backward_caches()
    tc = TextCache.concat(parts)
    del parts  # their e3p/f3p, which scoring does not read
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
