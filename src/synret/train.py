"""Symmetric contrastive training over caption-guided score matrices."""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .dataset import FeatureBundle, hold_patches
from .errors import DataError, NumericalError
from .params import Adam, ModelParams, zeros_like
from .pipeline import TextGrad, text_backward, text_forward, video_backward, video_forward
from .rng import SplitMix64
from .scoring import score_videos, score_videos_backward
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
    forward, one temporal pass over all frame rows, one kernel call over all
    videos."""
    tc, text_tape = text_forward(bundles, params)
    videos, video_tape = video_forward(bundles, params)
    return tc, text_tape, videos, video_tape, score_videos(tc, videos, cfg)


def batch_loss(bundles: list[FeatureBundle], params: ModelParams,
               cfg: RunConfig) -> float:
    loss, _ = symmetric_ce_loss(_batch_forward(bundles, params, cfg)[-1].scores, cfg.tau)
    return loss


def loss_and_backward(bundles: list[FeatureBundle], params: ModelParams,
                      cfg: RunConfig, grads: ModelParams):
    """Forward, loss, and full analytic backward pass, whose parameter
    gradients go into `grads`: a zero gradient set, or `Adam.grads`.

    One kernel backward takes dloss/ds to the stacked caption gradients
    (node weights included) and to each video's rows of the
    temporal-encoding gradient. The caption side, weights first, and the
    temporal layer then run their backward once each over the whole batch.
    Every sum runs in a fixed order, so gradients are bit-reproducible.
    Returns the loss and the batch's score matrix.
    """
    tc, text_tape, videos, video_tape, cols = _batch_forward(bundles, params, cfg)
    loss, ds = symmetric_ce_loss(cols.scores, cfg.tau)
    tg = TextGrad.zeros(tc)
    g_bar = score_videos_backward(ds, tc, videos, cols, cfg, tg)
    text_backward(tg, tc, text_tape, params, grads)
    video_backward(g_bar, video_tape, params, grads)
    return loss, cols.scores


def batch_loss_and_grads(bundles: list[FeatureBundle], params: ModelParams,
                         cfg: RunConfig):
    """Loss, a new whole gradient set and the scores, for checks; `train`
    keeps no gradient set."""
    grads = zeros_like(params)
    loss, scores = loss_and_backward(bundles, params, cfg, grads)
    return loss, grads, scores


def selection_margins(bundles: list[FeatureBundle], params: ModelParams,
                      cfg: RunConfig) -> float:
    """Smallest gap across all top-k selection boundaries in the batch.

    Finite-difference checks need this to be comfortably larger than the
    probe step so no selection flips during perturbation.
    """
    return float(_batch_forward(bundles, params, cfg)[-1].margin.min())


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(bundles: list[FeatureBundle], params: ModelParams,
          cfg: RunConfig) -> list[tuple[int, float]]:
    """Optimize params in place; returns the (step, loss) curve.

    Batches are drawn without replacement from a seeded shuffle each epoch;
    leftover pairs that cannot fill a batch are skipped that epoch. Stops
    after `steps` steps, or earlier once a step's loss falls below
    `stop_loss`. Every step revisits the pairs, so their patch payloads are
    read into memory first (`hold_patches`).
    """
    b = cfg.batch_size
    if len(bundles) < b:
        raise DataError(f"need at least batch_size={b} pairs, got {len(bundles)}")
    hold_patches(bundles)
    rng = SplitMix64(cfg.seed)
    adam = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
    curve: list[tuple[int, float]] = []
    queue: list[int] = []
    for step in range(1, cfg.steps + 1):
        if len(queue) < b:
            order = list(range(len(bundles)))
            rng.shuffle(order)
            queue = order[: (len(order) // b) * b]
        batch = [bundles[k] for k in queue[:b]]
        queue = queue[b:]
        try:
            loss, _ = loss_and_backward(batch, params, cfg, adam.grads)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite loss at step {step}")
            adam.update(params)
        except FloatingPointError as e:  # raised only where numpy is set to raise
            raise FloatingPointError(f"{e} at step {step}") from None
        curve.append((step, loss))
        if cfg.stop_loss is not None and loss < cfg.stop_loss:
            break
    return curve


def write_loss_log(curve: list[tuple[int, float]], path) -> None:
    lines = ["step,loss"] + [f"{step},{loss!r}" for step, loss in curve]
    write_file(path, "\n".join(lines) + "\n")
