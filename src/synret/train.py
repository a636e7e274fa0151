"""Symmetric contrastive training over caption-guided score matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, TrainConfig
from .dataset import FeatureBundle
from .errors import DataError, NumericalError
from .params import Adam, ModelParams
from .pipeline import (
    PairFeatures,
    TextGrad,
    VideoGrad,
    pair_backward,
    pair_forward,
    text_backward,
    text_forward,
    video_backward,
    video_forward,
)
from .rng import SplitMix64
from .scoring import (
    ScoreBreakdown,
    score_pair,
    score_pair_backward,
    score_video,
    stack_captions,
    text_weights,
)


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


@dataclass
class BatchEval:
    tcs: list
    wcs: list
    vcs: list
    pfs: list[list[PairFeatures]]
    bds: list[list[ScoreBreakdown]]
    scores: np.ndarray


def evaluate_batch(bundles: list[FeatureBundle], params: ModelParams,
                   cfg: RunConfig) -> BatchEval:
    """Cross-score every caption in the batch against every video."""
    tcs = [text_forward(b, params) for b in bundles]
    wcs = [text_weights(tc) for tc in tcs]
    vcs = [video_forward(b, params) for b in bundles]
    n = len(bundles)
    scores = np.zeros((n, n))
    pfs, bds = [], []
    for i in range(n):
        row_pf, row_bd = [], []
        for j in range(n):
            pf = pair_forward(tcs[i], vcs[j], cfg)
            bd = score_pair(tcs[i], wcs[i], pf)
            scores[i, j] = bd.final
            row_pf.append(pf)
            row_bd.append(bd)
        pfs.append(row_pf)
        bds.append(row_bd)
    return BatchEval(tcs=tcs, wcs=wcs, vcs=vcs, pfs=pfs, bds=bds, scores=scores)


def batch_loss(bundles: list[FeatureBundle], params: ModelParams,
               cfg: RunConfig) -> float:
    ev = evaluate_batch(bundles, params, cfg)
    loss, _ = symmetric_ce_loss(ev.scores, cfg.tau)
    return loss


def batch_loss_and_grads(bundles: list[FeatureBundle], params: ModelParams,
                         cfg: RunConfig):
    """Forward, loss, and full analytic backward pass.

    Per-pair contributions hit per-caption / per-video boundary buffers
    first; the shared caption and temporal chains then run once each, in
    fixed order, so accumulation is bit-reproducible.
    """
    from .params import zeros_like

    ev = evaluate_batch(bundles, params, cfg)
    loss, ds = symmetric_ce_loss(ev.scores, cfg.tau)

    grads = zeros_like(params)
    n = len(bundles)
    tgs = [TextGrad.zeros(tc) for tc in ev.tcs]
    vgs = [VideoGrad.zeros(vc) for vc in ev.vcs]
    for i in range(n):
        for j in range(n):
            ev1_bar, ev2_bar = score_pair_backward(
                ds[i, j], ev.tcs[i], ev.wcs[i], ev.pfs[i][j], ev.bds[i][j], tgs[i]
            )
            pair_backward(ev1_bar, ev2_bar, ev.pfs[i][j], tgs[i], vgs[j])
    for i in range(n):
        text_backward(tgs[i], ev.tcs[i], params, grads)
    for j in range(n):
        video_backward(vgs[j], ev.vcs[j], params, grads)
    return loss, grads, ev.scores


def selection_margins(bundles: list[FeatureBundle], params: ModelParams,
                      cfg: RunConfig) -> float:
    """Smallest gap across all top-k selection boundaries in the batch.

    Finite-difference checks need this to be comfortably larger than the
    probe step so no selection flips during perturbation.
    """
    cs = stack_captions([text_forward(b, params) for b in bundles])
    margin = np.inf
    for b in bundles:
        col = score_video(cs, video_forward(b, params), cfg)
        margin = min(margin, _kth_gap(col.ranked2, cfg.lambda_frame),
                     _kth_gap(col.ranked3, cfg.lambda_patch))
    return float(margin)


def _kth_gap(ranked: np.ndarray, k: int) -> float:
    """Smallest gap between the kth and (k+1)th entries of rows sorted
    descending along the last axis."""
    if k >= ranked.shape[-1] or ranked.size == 0:
        return np.inf
    return float((ranked[..., k - 1] - ranked[..., k]).min())


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
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
