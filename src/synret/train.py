"""Symmetric contrastive training over caption-guided score matrices."""

from __future__ import annotations

import numpy as np

from .config import RunConfig, TrainConfig
from .dataset import FeatureBundle
from .errors import DataError, NumericalError
from .params import Adam, ModelParams, zeros_like
from .pipeline import TextGrad, text_backward, text_forward, video_backward, video_forward
from .rng import SplitMix64
from .scoring import (
    score_video,
    score_video_backward,
    text_weights,
    text_weights_backward,
)
from .tensor_store import write_file


def symmetric_ce_loss(s: np.ndarray, tau: float):
    """Mean of caption->video and video->caption cross-entropy over a batch
    score matrix whose diagonal holds the positive pairs.

    Returns (loss, dloss/ds), both computed with log-sum-exp stabilization.
    """
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DataError(f"symmetric loss needs a square matrix, got {s.shape}")
    b = s.shape[0]
    z = tau * s
    diag = np.diag(z)

    row_max = z.max(axis=1)
    row_lse = row_max + np.log(np.exp(z - row_max[:, None]).sum(axis=1))
    col_max = z.max(axis=0)
    col_lse = col_max + np.log(np.exp(z - col_max[None, :]).sum(axis=0))
    loss_t2v = -(diag - row_lse).sum() / b
    loss_v2t = -(diag - col_lse).sum() / b
    loss = 0.5 * (loss_t2v + loss_v2t)

    p_row = np.exp(z - row_lse[:, None])
    p_col = np.exp(z - col_lse[None, :])
    grad = (tau / (2.0 * b)) * (p_row + p_col - 2.0 * np.eye(b))
    return float(loss), grad


# ---------------------------------------------------------------------------
# Batch evaluation: forward caches, loss, analytic parameter gradients
# ---------------------------------------------------------------------------


def _batch_forward(bundles: list[FeatureBundle], params: ModelParams, cfg: RunConfig):
    """Every caption in the batch against every video: one stacked caption
    forward, one temporal pass over all frame rows, one kernel call per
    video."""
    tc, text_tape = text_forward(bundles, params)
    wc = text_weights(tc)
    videos, video_tape = video_forward(bundles, params)
    cols = [score_video(tc, wc, vid, cfg) for vid in videos]
    scores = np.stack([col.scores for col in cols], axis=1)
    return tc, text_tape, wc, videos, video_tape, cols, scores


def batch_loss(bundles: list[FeatureBundle], params: ModelParams,
               cfg: RunConfig) -> float:
    loss, _ = symmetric_ce_loss(_batch_forward(bundles, params, cfg)[-1], cfg.tau)
    return loss


def batch_loss_and_grads(bundles: list[FeatureBundle], params: ModelParams,
                         cfg: RunConfig):
    """Forward, loss, and full analytic backward pass.

    Each video's column of dloss/ds lands on the stacked caption gradients
    and on that video's rows of the temporal-encoding gradient; the weight
    gradients, summed over videos, then pass through one softmax VJP per
    caption. The caption projections and the temporal layer then run their
    backward once each over the whole batch. Every sum runs in a fixed
    order, so gradients are bit-reproducible.
    """
    tc, text_tape, wc, videos, video_tape, cols, scores = _batch_forward(bundles, params, cfg)
    loss, ds = symmetric_ce_loss(scores, cfg.tau)

    grads = zeros_like(params)
    tg = TextGrad.zeros(tc)
    g_bar = np.zeros((videos[-1].rows.stop, params.d))
    for j, (vid, col) in enumerate(zip(videos, cols)):
        score_video_backward(ds[:, j], tc, wc, vid, col, cfg, tg, g_bar[vid.rows])
    text_weights_backward(tg, tc, wc)
    text_backward(tg, text_tape, params, grads)
    video_backward(g_bar, video_tape, params, grads)
    return loss, grads, scores


def selection_margins(bundles: list[FeatureBundle], params: ModelParams,
                      cfg: RunConfig) -> float:
    """Smallest gap across all top-k selection boundaries in the batch.

    Finite-difference checks need this to be comfortably larger than the
    probe step so no selection flips during perturbation.
    """
    return min(col.margin for col in _batch_forward(bundles, params, cfg)[5])


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(bundles: list[FeatureBundle], params: ModelParams, run_cfg: RunConfig,
          train_cfg: TrainConfig) -> list[tuple[int, float]]:
    """Optimize params in place; returns the (step, loss) curve.

    Batches are drawn without replacement from a seeded shuffle each epoch;
    leftover pairs that cannot fill a batch are skipped that epoch. Stops
    after `steps` steps, or earlier once a step's loss falls below
    `stop_loss`.
    """
    b = train_cfg.batch_size
    if len(bundles) < b:
        raise DataError(f"need at least batch_size={b} pairs, got {len(bundles)}")
    rng = SplitMix64(run_cfg.seed)
    adam = Adam(params, lr=train_cfg.lr, beta1=train_cfg.beta1,
                beta2=train_cfg.beta2, eps=train_cfg.adam_eps)
    curve: list[tuple[int, float]] = []
    queue: list[int] = []
    for step in range(1, train_cfg.steps + 1):
        if len(queue) < b:
            order = list(range(len(bundles)))
            rng.shuffle(order)
            queue = order[: (len(order) // b) * b]
        batch = [bundles[k] for k in queue[:b]]
        queue = queue[b:]
        loss, grads, _ = batch_loss_and_grads(batch, params, run_cfg)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss at step {step}")
        adam.step(params, grads)
        curve.append((step, loss))
        if train_cfg.stop_loss is not None and loss < train_cfg.stop_loss:
            break
    return curve


def write_loss_log(curve: list[tuple[int, float]], path) -> None:
    lines = ["step,loss"] + [f"{step},{loss!r}" for step, loss in curve]
    write_file(path, "\n".join(lines) + "\n")
