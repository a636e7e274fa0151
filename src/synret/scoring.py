"""Hierarchy-weighted similarity between caption and video features.

Scores are computed node-by-node per layer; action and entity nodes carry
the softmax weights that the caption forward derived from caption-internal
similarities (`TextCache.w2`/`w3`), the whole-layer weight is fixed to 1,
and the final score is the plain mean of the three layer scores. An empty
entity layer contributes 0 while the divisor stays 3 (config:
empty_layer_policy = "zero").

`score_video` is the one place where frames and patches are selected, and
it records its picks in ascending order. `pool` is the one place where the
picked rows are averaged: training and the `fuse` command (through
`fuse_pair`) read both. The per-pair oracle they are tested against is
`synret.reference`.
"""

from __future__ import annotations

import math
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


# ---------------------------------------------------------------------------
# Cross scoring: one video against every caption at once
# ---------------------------------------------------------------------------


@dataclass
class VideoColumn:
    scores: np.ndarray   # (T,) final score of every caption against the video
    logits: np.ndarray   # (T, N_v) caption-frame logits of layer 1
    frames: np.ndarray   # (A, k_frame) each action's picked frames, ascending
    score2: np.ndarray   # (A,) action node scores
    patches: np.ndarray  # (M, k_frame, k_patch) each entity's picked patches,
                         # ascending, one row per parent-picked frame, ascending
    score3: np.ndarray   # (M,) entity node scores
    margin: float        # smallest kth-to-(k+1)th score gap; inf when a budget covers all


def top(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, ranked): the first min(k, n) indices along the last axis by
    descending score, ties to the lower index, and the scores in that order;
    the first columns of a stable sort of the negated scores. Each column is
    one `argmax` (the first maximum) over a copy whose earlier winners are
    set to -inf, so the scores must be finite floats."""
    *lead, n = scores.shape
    k = min(k, n)
    rows = math.prod(lead)
    work = scores.reshape(rows, n).copy()
    flat = work.reshape(-1)
    base = np.arange(rows) * n
    order = np.empty((rows, k), dtype=np.intp)
    ranked = np.empty((rows, k), dtype=scores.dtype)
    for i in range(k):
        at = work.argmax(axis=1)
        order[:, i] = at
        at += base
        ranked[:, i] = flat[at]
        flat[at] = -np.inf
    return order.reshape(*lead, k), ranked.reshape(*lead, k)


def _kth_gap(ranked: np.ndarray, k: int) -> float:
    """Smallest gap between the kth and (k+1)th entries of rows sorted
    descending along the last axis."""
    if k >= ranked.shape[-1] or ranked.size == 0:
        return np.inf
    return float((ranked[..., k - 1] - ranked[..., k]).min())


def score_video(tc: TextCache, vid: Video, cfg: RunConfig) -> VideoColumn:
    """Scores of every stacked caption against one video, equal per caption
    to the per-pair oracle in `synret.reference` up to rounding.

    Each node score is an average of dot products, so it is computed from
    score GEMMs without gathering feature rows: e1.ev1 is the
    attention-weighted mean of the frame logits, e2.ev2 the mean of the
    picked frame scores, and e3.ev3 the frame-average of the mean top patch
    scores. Patches are scored only inside the frames each entity's parent
    action picked, with one GEMM per frame over the entities that picked it,
    on a float64 copy of that frame's patches. Frames and patches are picked
    by `top` (ties to the lower index, first λ+1 only: the λ picks and the
    next score, which `margin` reads), and the picks are recorded in
    ascending order.
    """
    n_t = tc.e1.shape[0]
    n_v, n_p, _ = vid.patches.shape
    k_frame, k_patch = min(cfg.lambda_frame, n_v), min(cfg.lambda_patch, n_p)

    logits = tc.e1 @ vid.frames.T
    s1 = (softmax(logits) * logits).sum(axis=1)

    order2, ranked2 = top(tc.e2 @ vid.g.T, cfg.lambda_frame + 1)
    score2 = ranked2[:, :k_frame].mean(axis=1)
    frames = np.sort(order2[:, :k_frame], axis=1)

    picked = frames[tc.parent3]
    in_picked = np.empty((picked.shape[0], k_frame, n_p))
    for j in range(n_v):
        ent, slot = np.nonzero(picked == j)
        if ent.size:
            # widened first: a float32 operand in `@` rounds differently
            in_picked[ent, slot] = tc.e3[ent] @ vid.patches[j].astype(np.float64).T
    order3, ranked3 = top(in_picked, cfg.lambda_patch + 1)
    frame_means = ranked3[:, :, :cfg.lambda_patch].mean(axis=2)
    if cfg.literal_patch_norm:
        score3 = frame_means.sum(axis=1) / cfg.lambda_patch
    else:
        score3 = frame_means.mean(axis=1)

    s2 = np.bincount(tc.owner2, weights=tc.w2 * score2, minlength=n_t)
    s3 = np.bincount(tc.owner3, weights=tc.w3 * score3, minlength=n_t)
    return VideoColumn(scores=(s1 + s2 + s3) / 3.0, logits=logits, frames=frames,
                       score2=score2, patches=np.sort(order3[:, :, :k_patch], axis=2),
                       score3=score3,
                       margin=min(_kth_gap(ranked2, cfg.lambda_frame),
                                  _kth_gap(ranked3, cfg.lambda_patch)))


def pool(col: VideoColumn, tc: TextCache, vid: Video,
         cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(ev2, ev3): each action's mean of its picked frames' g rows, and each
    entity's across-frame mean (or sum over lambda_patch under
    literal_patch_norm) of its per-frame means of picked patch rows, widened
    to float64. Rows are summed in ascending order, as the oracle sums them."""
    n_v, n_p, d = vid.patches.shape
    rows = col.frames[tc.parent3][:, :, None] * n_p + col.patches
    means = vid.patches.reshape(n_v * n_p, d)[rows].astype(np.float64).mean(axis=2)
    if cfg.literal_patch_norm:
        ev3 = means.sum(axis=1) / cfg.lambda_patch
    else:
        ev3 = means.mean(axis=1)
    return vid.g[col.frames].mean(axis=1), ev3


def score_video_backward(s_bar: np.ndarray, tc: TextCache, vid: Video, col: VideoColumn,
                         cfg: RunConfig, tg: TextGrad, g_bar: np.ndarray) -> None:
    """Adds the gradient of one column of scores, s_bar = dloss/ds[:, j], to
    the stacked caption gradients `tg` and to this video's temporal-encoding
    gradient `g_bar`, using the forward pass's frame and patch selections.
    Patch rows are frozen inputs, so layer 3 reaches only e3 and w3."""
    lbar = s_bar / 3.0

    # layer 1: s1 = a . l with a = softmax(l), so ds1/dl = a * (1 + l - s1)
    a = softmax(col.logits)
    s1 = (a * col.logits).sum(axis=1)
    tg.e1 += (lbar[:, None] * a * (1.0 + col.logits - s1[:, None])) @ vid.frames

    # layers 2 and 3: e2 . ev2 and e3 . ev3 over the picked rows
    ev2, ev3 = pool(col, tc, vid, cfg)
    c2 = lbar[tc.owner2] * tc.w2
    tg.e2 += c2[:, None] * ev2
    np.add.at(g_bar, col.frames, (c2 / col.frames.shape[1])[:, None, None] * tc.e2[:, None, :])
    tg.w2 += lbar[tc.owner2] * col.score2
    tg.e3 += (lbar[tc.owner3] * tc.w3)[:, None] * ev3
    tg.w3 += lbar[tc.owner3] * col.score3


@dataclass
class FusedPair:
    """One caption's video-side features against one video."""
    ev1: np.ndarray      # (d,) raw frames pooled by the caption's frame attention
    ev2: np.ndarray      # (n2, d) per action: mean of its picked frames' g rows
    ev3: np.ndarray      # (n3, d) per entity: across-frame mean of per-frame patch means
    frames: np.ndarray   # (n2, k_frame) VideoColumn.frames
    patches: np.ndarray  # (n3, k_frame, k_patch) VideoColumn.patches


def fuse_pair(tc: TextCache, vid: Video, cfg: RunConfig) -> FusedPair:
    """The fused features of the one caption stacked in `tc` against `vid`,
    pooled from `score_video`'s logits and picks, so they select exactly as
    scoring and training do."""
    col = score_video(tc, vid, cfg)
    ev2, ev3 = pool(col, tc, vid, cfg)
    return FusedPair(ev1=softmax(col.logits[0]) @ vid.frames, ev2=ev2, ev3=ev3,
                     frames=col.frames, patches=col.patches)


def score_matrix(bundles_t: list[FeatureBundle], bundles_v: list[FeatureBundle],
                 params: ModelParams, cfg: RunConfig) -> np.ndarray:
    """Rows are captions, columns are videos. Fusion is caption-guided, so
    the matrix is not symmetric even on the diagonal manifest.

    Captions and videos are encoded in chunks of ENCODE_CHUNK, and each
    video is scored against all captions by `score_video`. The tapes are
    dropped as each chunk is encoded: nothing here runs backward.
    """
    out = np.zeros((len(bundles_t), len(bundles_v)))
    if not bundles_t:
        return out
    tc = TextCache.concat([text_forward(bundles_t[lo:lo + ENCODE_CHUNK], params)[0]
                           for lo in range(0, len(bundles_t), ENCODE_CHUNK)])
    for lo in range(0, len(bundles_v), ENCODE_CHUNK):
        videos = video_forward(bundles_v[lo:lo + ENCODE_CHUNK], params)[0]
        for j, vid in enumerate(videos, start=lo):
            out[:, j] = score_video(tc, vid, cfg).scores
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
