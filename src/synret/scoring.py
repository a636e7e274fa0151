"""Hierarchy-weighted similarity between caption and video features.

Scores are computed node-by-node per layer; action and entity nodes carry
the softmax weights that the caption forward derived from caption-internal
similarities (`TextCache.w2`/`w3`), the whole-layer weight is fixed to 1,
and the final score is the plain mean of the three layer scores. An empty
entity layer contributes 0 while the divisor stays 3 (config:
empty_layer_policy = "zero").

`score_videos` is the one place where frames and patches are selected, for
a batch of videos at once, and it records its picks in ascending order.
`pool` is the one place where the picked rows are averaged: training and
the `fuse` command (through `fuse_pair`) read both. The per-pair oracle
they are tested against is `synret.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import groups, softmax
from .config import RunConfig
from .dataset import FeatureBundle
from .errors import DataError
from .parallel import blas_threads, in_order, usable_cpus
from .params import ModelParams
from .pipeline import (
    TextCache,
    TextGrad,
    Video,
    text_forward,
    video_forward,
)


# ---------------------------------------------------------------------------
# Cross scoring: a batch of videos against every caption at once
# ---------------------------------------------------------------------------


@dataclass
class VideoColumn:
    """One video's column of a `VideoColumns`, as views at its own sizes."""
    scores: np.ndarray   # (T,) final score of every caption against the video
    logits: np.ndarray   # (T, N_v) caption-frame logits of layer 1
    frames: np.ndarray   # (A, k_frame) each action's picked frames, ascending
    score2: np.ndarray   # (A,) action node scores
    patches: np.ndarray  # (M, k_frame, k_patch) each entity's picked patches,
                         # ascending, one row per parent-picked frame, ascending
    score3: np.ndarray   # (M,) entity node scores
    margin: float        # smallest kth-to-(k+1)th score gap; inf when a budget covers all


@dataclass
class VideoColumns:
    """Every stacked caption against a batch of B videos. Videos may differ
    in frame and patch counts, so the frame and patch axes are as long as the
    batch's largest; `sizes` holds each video's (N_v, k_frame, k_patch), and
    `columns[b]` (or iterating) gives each video's `VideoColumn`."""
    scores: np.ndarray   # (T, B)
    logits: np.ndarray   # (T, B, N_v)
    attn: np.ndarray     # (T, B, N_v) softmax of the logits over each video's frames
    s1: np.ndarray       # (T, B) layer-1 scores, attn . logits
    frames: np.ndarray   # (A, B, k_frame)
    score2: np.ndarray   # (A, B)
    patches: np.ndarray  # (M, B, k_frame, k_patch)
    score3: np.ndarray   # (M, B)
    margin: np.ndarray   # (B,)
    sizes: list[tuple[int, int, int]]

    def __getitem__(self, b: int) -> VideoColumn:
        n_v, k_frame, k_patch = self.sizes[b]  # IndexError past the end ends iteration
        return VideoColumn(scores=self.scores[:, b], logits=self.logits[:, b, :n_v],
                           frames=self.frames[:, b, :k_frame], score2=self.score2[:, b],
                           patches=self.patches[:, b, :k_frame, :k_patch],
                           score3=self.score3[:, b], margin=float(self.margin[b]))


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


def _kth_gaps(ranked: np.ndarray, k: int) -> np.ndarray:
    """Per video (axis 1), the smallest gap between the kth and (k+1)th
    entries of rows sorted descending along the last axis."""
    if k >= ranked.shape[-1] or ranked.size == 0:
        return np.full(ranked.shape[1], np.inf)
    gap = ranked[..., k - 1] - ranked[..., k]
    return np.swapaxes(gap, 0, 1).reshape(gap.shape[1], -1).min(axis=1)


def score_videos(tc: TextCache, videos: list[Video], cfg: RunConfig) -> VideoColumns:
    """Scores of every stacked caption against every video of a batch, equal
    per caption and video to the per-pair oracle in `synret.reference` up to
    rounding, and bit for bit the same whatever else is in the batch.

    Each node score is an average of dot products, so it is computed from
    score GEMMs without gathering feature rows: e1.ev1 is the
    attention-weighted mean of the frame logits, e2.ev2 the mean of the
    picked frame scores, and e3.ev3 the frame-average of the mean top patch
    scores. Frames and patches are picked by `top` (ties to the lower index,
    first λ+1 only: the λ picks and the next score, which `margin` reads),
    and the picks are recorded in ascending order. Videos of one
    (N_v, N_p) shape are scored together by `_score_group`.
    """
    shapes = [vid.patches.shape[:2] for vid in videos]
    n_v, n_p = max(s[0] for s in shapes), max(s[1] for s in shapes)
    k_frame, k_patch = min(cfg.lambda_frame, n_v), min(cfg.lambda_patch, n_p)
    n_t, n_b = tc.e1.shape[0], len(videos)
    n_a, n_m = tc.e2.shape[0], tc.e3.shape[0]
    cols = VideoColumns(
        scores=np.empty((n_t, n_b)), logits=np.zeros((n_t, n_b, n_v)),
        attn=np.zeros((n_t, n_b, n_v)), s1=np.empty((n_t, n_b)),
        frames=np.zeros((n_a, n_b, k_frame), dtype=np.intp), score2=np.empty((n_a, n_b)),
        patches=np.zeros((n_m, n_b, k_frame, k_patch), dtype=np.intp),
        score3=np.empty((n_m, n_b)), margin=np.empty(n_b),
        sizes=[(v, min(cfg.lambda_frame, v), min(cfg.lambda_patch, p)) for v, p in shapes])
    for at in groups(shapes):
        _score_group(tc, [videos[b] for b in at], cfg, cols, np.array(at))
    return cols


def _score_group(tc: TextCache, videos: list[Video], cfg: RunConfig, cols: VideoColumns,
                 at: np.ndarray) -> None:
    """Scores videos of one shape into columns `at` of `cols`. The layer-1
    and layer-2 GEMMs run per video, at one video's shape: stacking the
    videos' rows into one GEMM rounds differently. Patches are scored only
    inside the frames each entity's parent action picked, with one GEMM per
    frame over the entities that picked it, on a float64 copy of that
    frame's patches, at one BLAS thread: at d=512 these GEMMs round
    differently at one and two threads, which could flip a pick between
    near-tied patches. Everything else runs once over the group."""
    n_t, n_a, n_m = tc.e1.shape[0], tc.e2.shape[0], tc.e3.shape[0]
    n_b = len(videos)
    n_v, n_p, _ = videos[0].patches.shape
    k_frame, k_patch = min(cfg.lambda_frame, n_v), min(cfg.lambda_patch, n_p)

    logits, scores2 = np.empty((n_t, n_b, n_v)), np.empty((n_a, n_b, n_v))
    for b, vid in enumerate(videos):
        logits[:, b] = tc.e1 @ vid.frames.T
        scores2[:, b] = tc.e2 @ vid.g.T
    attn = softmax(logits)
    s1 = (attn * logits).sum(axis=2)

    order2, ranked2 = top(scores2, cfg.lambda_frame + 1)
    score2 = ranked2[..., :k_frame].sum(axis=2) / k_frame
    frames = np.sort(order2[..., :k_frame], axis=2)

    # picked[m, b, slot] is the frame that patch row (m*B + b)*k_frame + slot
    # scores. Rows are scored in a stable sort by (video, frame), which keeps
    # each frame's entities in row order, as `np.nonzero` lists them, and
    # their picks are put back in row order.
    picked = frames[tc.parent3] + (np.arange(n_b) * n_v)[:, None]
    order = np.argsort(picked.reshape(-1), kind="stable")
    ends = np.cumsum(np.bincount(picked.reshape(-1), minlength=n_b * n_v)).tolist()
    ent = order // (n_b * k_frame)
    scores3 = np.empty((order.size, n_p))
    lo = 0
    with blas_threads(1):
        for b, vid in enumerate(videos):
            for j in range(n_v):
                hi = ends[b * n_v + j]
                if hi > lo:
                    # widened first: a float32 operand in `@` rounds differently
                    np.matmul(tc.e3[ent[lo:hi]], vid.patches[j].astype(np.float64).T,
                              out=scores3[lo:hi])
                lo = hi
    sorted3 = top(scores3, cfg.lambda_patch + 1)
    order3, ranked3 = (np.empty_like(x) for x in sorted3)
    order3[order], ranked3[order] = sorted3
    shape3 = (n_m, n_b, k_frame, order3.shape[1])
    order3, ranked3 = order3.reshape(shape3), ranked3.reshape(shape3)
    frame_means = ranked3[..., :k_patch].sum(axis=3) / k_patch
    score3 = frame_means.sum(axis=2) / (cfg.lambda_patch if cfg.literal_patch_norm else k_frame)

    videos_at = np.arange(n_b)
    s2 = np.bincount((tc.owner2[:, None] * n_b + videos_at).reshape(-1),
                     weights=(tc.w2[:, None] * score2).reshape(-1), minlength=n_t * n_b)
    s3 = np.bincount((tc.owner3[:, None] * n_b + videos_at).reshape(-1),
                     weights=(tc.w3[:, None] * score3).reshape(-1), minlength=n_t * n_b)
    cols.scores[:, at] = (s1 + s2.reshape(n_t, n_b) + s3.reshape(n_t, n_b)) / 3.0
    cols.logits[:, at, :n_v] = logits
    cols.attn[:, at, :n_v] = attn
    cols.s1[:, at] = s1
    cols.frames[:, at, :k_frame] = frames
    cols.score2[:, at] = score2
    cols.patches[:, at, :k_frame, :k_patch] = np.sort(order3[..., :k_patch], axis=3)
    cols.score3[:, at] = score3
    cols.margin[at] = np.minimum(_kth_gaps(ranked2, cfg.lambda_frame),
                                 _kth_gaps(ranked3, cfg.lambda_patch))


def pool(col: VideoColumn, tc: TextCache, vid: Video,
         cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """(ev2, ev3): each action's mean of its picked frames' g rows, and each
    entity's across-frame mean (or sum over lambda_patch under
    literal_patch_norm) of its per-frame means of picked patch rows, widened
    to float64. Rows are summed in ascending order, as the oracle sums them."""
    n_v, n_p, d = vid.patches.shape
    _, k_frame, k_patch = col.patches.shape
    rows = col.frames[tc.parent3][:, :, None] * n_p + col.patches
    means = vid.patches.reshape(n_v * n_p, d)[rows].astype(np.float64).sum(axis=2) / k_patch
    ev3 = means.sum(axis=1) / (cfg.lambda_patch if cfg.literal_patch_norm else k_frame)
    return vid.g[col.frames].sum(axis=1) / k_frame, ev3


def score_videos_backward(s_bar: np.ndarray, tc: TextCache, videos: list[Video],
                          cols: VideoColumns, cfg: RunConfig, tg: TextGrad) -> np.ndarray:
    """Adds the gradient of the scores, s_bar = dloss/ds (T, B), to the
    stacked caption gradients `tg`, and returns the gradient of the batch's
    temporal-encoded frames (each video's rows in batch order), using the
    forward pass's frame and patch selections. Each video adds to `tg` in
    batch order, and each frame row takes its adds in action order, so every
    sum runs as one video at a time would run it. Patch rows are frozen
    inputs, so layer 3 reaches only e3 and w3."""
    lbar = s_bar / 3.0

    # layer 1: s1 = a . l with a = softmax(l), so ds1/dl = a * (1 + l - s1)
    l_bar = lbar[:, :, None] * cols.attn * (1.0 + cols.logits - cols.s1[:, :, None])

    # layers 2 and 3: e2 . ev2 and e3 . ev3 over the picked rows; each
    # video's picked g rows take one scatter-add, element by element, in
    # (action, slot) order (numpy's fast path for `at`), so the transient is
    # A x k_frame x d, not A x B x k_frame x d
    d = tc.e2.shape[1]
    c2 = lbar[tc.owner2] * tc.w2[:, None]
    c3 = lbar[tc.owner3] * tc.w3[:, None]
    n_v = [vid.g.shape[0] for vid in videos]
    first = np.cumsum(n_v) - n_v
    g_bar = np.zeros((sum(n_v), d))
    w2_bar = lbar[tc.owner2] * cols.score2
    w3_bar = lbar[tc.owner3] * cols.score3
    for b, (vid, col) in enumerate(zip(videos, cols)):
        k_frame = col.frames.shape[1]
        add = (c2[:, b] / k_frame)[:, None, None] * tc.e2[:, None, :]
        np.add.at(g_bar[first[b]:first[b] + n_v[b]].reshape(-1),
                  (col.frames[..., None] * d + np.arange(d)).reshape(-1),
                  np.broadcast_to(add, (*col.frames.shape, d)).reshape(-1))
        tg.e1 += np.ascontiguousarray(l_bar[:, b, :n_v[b]]) @ vid.frames
        ev2, ev3 = pool(col, tc, vid, cfg)
        tg.e2 += c2[:, b, None] * ev2
        tg.w2 += w2_bar[:, b]
        tg.e3 += c3[:, b, None] * ev3
        tg.w3 += w3_bar[:, b]
    return g_bar


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
    pooled by `score_videos`'s frame attention and picks, so they select
    exactly as scoring and training do."""
    cols = score_videos(tc, [vid], cfg)
    col = cols[0]
    ev2, ev3 = pool(col, tc, vid, cfg)
    return FusedPair(ev1=cols.attn[0, 0] @ vid.frames, ev2=ev2, ev3=ev3,
                     frames=col.frames, patches=col.patches)


# A gallery is encoded this many items per `text_forward`/`video_forward`
# call: enough rows to pay for one pass over the weights, few enough to keep
# one chunk's activations small.
ENCODE_CHUNK = 16
# Below this width two chunk workers mostly take turns holding the
# interpreter lock. A 100-pair `eval` (12 frames of 49 patches) on two
# workers against one: 1.04x the time at d=32, 1.01x at 64, 0.99-1.12x at
# 96, 0.94x at 112, 0.76-0.81x at 128 and 0.74x at 256 (2 vCPUs).
POOL_MIN_D = 128
# The pool's width was measured at two workers only. Each worker holds one
# chunk's payloads and scoring transients, so a wider pool has a higher peak.
POOL_WIDTH = 2


def gallery_chunks(fn, bundles: list[FeatureBundle], params: ModelParams) -> list:
    """[fn(chunk) for each chunk of ENCODE_CHUNK bundles], in gallery order:
    the one place where a gallery path (`score_matrix`, the `fuse` command)
    is cut into chunks. From `POOL_MIN_D` up, the chunks run on up to
    `POOL_WIDTH` threads, no more than the usable CPUs (`parallel.in_order`,
    which holds BLAS to one thread meanwhile). Each chunk computes alone,
    and its results and errors are taken in chunk order, so the bytes and
    the error raised do not depend on the worker count."""
    chunks = [bundles[lo:lo + ENCODE_CHUNK] for lo in range(0, len(bundles), ENCODE_CHUNK)]
    workers = min(usable_cpus(), POOL_WIDTH) if params.d >= POOL_MIN_D else 1
    return in_order(fn, chunks, workers)


def score_matrix(bundles_t: list[FeatureBundle], bundles_v: list[FeatureBundle],
                 params: ModelParams, cfg: RunConfig) -> np.ndarray:
    """Rows are captions, columns are videos. Fusion is caption-guided, so
    the matrix is not symmetric even on the diagonal manifest.

    Captions and videos are encoded in `gallery_chunks`, and each chunk of
    videos, its patch payloads read as it starts, is scored against all
    captions by one `score_videos` call. The tapes are dropped as each chunk
    is encoded: nothing here runs backward.
    """
    if not bundles_t:
        return np.zeros((0, len(bundles_v)))
    tc = TextCache.concat(gallery_chunks(lambda chunk: text_forward(chunk, params)[0],
                                         bundles_t, params))
    scores = gallery_chunks(lambda chunk: score_videos(tc, video_forward(chunk, params)[0],
                                                       cfg).scores, bundles_v, params)
    return np.concatenate([np.zeros((len(bundles_t), 0)), *scores], axis=1)


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
