"""Contrastive loss identities, optimizer behavior, and training determinism."""

import numpy as np
import pytest

from synret.config import RunConfig, TrainConfig
from synret.dataset import synthetic_bundles
from synret.errors import DataError
from synret.params import Adam, init_params, load_checkpoint, save_checkpoint, zeros_like
from synret.rng import SplitMix64
from synret.train import (
    selection_margins,
    symmetric_ce_loss,
    train,
    write_loss_log,
)

from conftest import per_pair_selection_margin


class TestSymmetricLoss:
    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_uniform_matrix_gives_log_b(self, b):
        loss, _ = symmetric_ce_loss(np.full((b, b), 1.23), tau=4.0)
        assert abs(loss - np.log(b)) < 1e-9

    def test_strong_diagonal_drives_loss_to_zero(self):
        loss, _ = symmetric_ce_loss(np.eye(4) * 50.0, tau=4.0)
        assert loss < 1e-12

    def test_matches_formula_oracle(self):
        rng = SplitMix64(71)
        s = rng.uniform_sym((4, 4))
        tau = 4.0
        loss, _ = symmetric_ce_loss(s, tau)
        t2v = 0.0
        v2t = 0.0
        for i in range(4):
            denom_r = sum(np.exp(tau * s[i, j]) for j in range(4))
            denom_c = sum(np.exp(tau * s[j, i]) for j in range(4))
            t2v -= np.log(np.exp(tau * s[i, i]) / denom_r) / 4
            v2t -= np.log(np.exp(tau * s[i, i]) / denom_c) / 4
        assert abs(loss - 0.5 * (t2v + v2t)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = SplitMix64(72)
        s = rng.uniform_sym((4, 4))
        _, grad = symmetric_ce_loss(s, 4.0)
        h = 1e-6
        for i in range(4):
            for j in range(4):
                sp, sm = s.copy(), s.copy()
                sp[i, j] += h
                sm[i, j] -= h
                num = (symmetric_ce_loss(sp, 4.0)[0] - symmetric_ce_loss(sm, 4.0)[0]) / (2 * h)
                assert abs(grad[i, j] - num) / max(abs(num), 1e-3) < 1e-6

    def test_uniform_gradient_rows_and_columns_vanish(self):
        for b in (2, 4, 8):
            _, grad = symmetric_ce_loss(np.full((b, b), 0.5), 4.0)
            assert np.abs(grad.sum(axis=0)).max() < 1e-10
            assert np.abs(grad.sum(axis=1)).max() < 1e-10

    def test_total_gradient_is_zero_for_any_matrix(self):
        rng = SplitMix64(73)
        for _ in range(5):
            _, grad = symmetric_ce_loss(rng.uniform_sym((6, 6)), 4.0)
            assert abs(grad.sum()) < 1e-10

    def test_loss_nonnegative(self):
        rng = SplitMix64(74)
        for _ in range(10):
            loss, _ = symmetric_ce_loss(rng.uniform_sym((5, 5)), 4.0)
            assert loss >= 0.0

    def test_rejects_non_square(self):
        with pytest.raises(DataError):
            symmetric_ce_loss(np.zeros((2, 3)), 4.0)


class TestAdam:
    def test_zero_lr_keeps_params(self):
        params = init_params(1, 8, max_frames=3)
        before = {n: t.copy() for n, t in params.named_tensors()}
        opt = Adam(params, lr=0.0)
        grads = zeros_like(params)
        for _, g in grads.named_tensors():
            g[...] = 1.0
        for _ in range(5):
            opt.step(params, grads)
        for name, t in params.named_tensors():
            assert np.array_equal(t, before[name]), name

    def test_step_moves_against_gradient(self):
        params = init_params(2, 8, max_frames=3)
        before = params.mlp1.w1.copy()
        grads = zeros_like(params)
        grads.mlp1.w1[...] = 1.0
        Adam(params, lr=0.01).step(params, grads)
        assert (params.mlp1.w1 < before).all()


class TestTraining:
    def test_zero_lr_training_is_identity(self):
        bundles = synthetic_bundles(5, 4, 5, 3, 4, 8)
        params = init_params(9, 8, max_frames=3)
        before = {n: t.copy() for n, t in params.named_tensors()}
        run = RunConfig(d=8, max_frames=3, seed=5)
        train(bundles, params, run, TrainConfig(batch_size=4, steps=3, lr=0.0))
        for name, t in params.named_tensors():
            assert np.array_equal(t, before[name]), name

    def test_loss_decreases_on_small_overfit(self):
        bundles = synthetic_bundles(6, 4, 5, 3, 4, 8)
        params = init_params(10, 8, max_frames=3)
        run = RunConfig(d=8, max_frames=3, seed=6)
        curve = train(bundles, params, run, TrainConfig(batch_size=4, steps=60, lr=1e-3))
        assert curve[-1][1] < curve[0][1] * 0.5

    def test_same_seed_byte_identical_checkpoints(self, tmp_path):
        run = RunConfig(d=8, max_frames=3, seed=11)
        tcfg = TrainConfig(batch_size=2, steps=8, lr=1e-3)
        outs = []
        for sub in ("a", "b"):
            bundles = synthetic_bundles(8, 5, 5, 3, 4, 8)
            params = init_params(run.seed, 8, max_frames=3)
            train(bundles, params, run, tcfg)
            out = tmp_path / sub
            save_checkpoint(params, out, seed=run.seed)
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f.name

    def test_batching_drops_remainder_but_still_trains(self):
        # 5 pairs, batch 2: each epoch uses 4 of them, reshuffled per epoch
        bundles = synthetic_bundles(12, 5, 5, 3, 4, 8)
        params = init_params(12, 8, max_frames=3)
        run = RunConfig(d=8, max_frames=3, seed=12)
        curve = train(bundles, params, run, TrainConfig(batch_size=2, steps=6, lr=1e-4))
        assert len(curve) == 6

    def test_too_few_pairs_rejected(self):
        bundles = synthetic_bundles(13, 2, 5, 3, 4, 8)
        params = init_params(13, 8, max_frames=3)
        run = RunConfig(d=8, max_frames=3, seed=13)
        with pytest.raises(DataError):
            train(bundles, params, run, TrainConfig(batch_size=4, steps=1, lr=1e-4))

    def test_stop_loss_halts_early(self):
        bundles = synthetic_bundles(14, 4, 5, 3, 4, 8)
        params = init_params(14, 8, max_frames=3)
        run = RunConfig(d=8, max_frames=3, seed=14)
        curve = train(bundles, params, run,
                      TrainConfig(batch_size=4, steps=500, lr=1e-3, stop_loss=0.5))
        assert len(curve) < 500
        assert curve[-1][1] < 0.5


@pytest.mark.parametrize("lambda_frame,lambda_patch", [(2, 4), (1, 1), (4, 9), (3, 2)])
def test_selection_margins_match_per_pair_loop(small_setup, lambda_frame, lambda_patch):
    bundles, params, cfg = small_setup
    cfg = RunConfig(d=cfg.d, max_frames=cfg.max_frames, seed=cfg.seed,
                    lambda_frame=lambda_frame, lambda_patch=lambda_patch)
    want = per_pair_selection_margin(bundles, params, cfg)
    got = selection_margins(bundles, params, cfg)
    assert got == want or abs(got - want) <= 1e-12


def test_synret_train_names_the_module():
    import synret.train
    assert synret.train.batch_loss_and_grads.__module__ == "synret.train"


class TestCheckpointRoundtrip:
    def test_roundtrip_f32_quantized(self, tmp_path):
        params = init_params(21, 8, max_frames=3, tau=4.0)
        save_checkpoint(params, tmp_path, seed=21)
        back = load_checkpoint(tmp_path)
        assert back.d == 8 and back.heads == 8 and back.tau == 4.0
        for (name, a), (_, b) in zip(params.named_tensors(), back.named_tensors()):
            assert np.array_equal(a.astype(np.float32), b.astype(np.float32)), name

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path)


def test_loss_log_format(tmp_path):
    p = tmp_path / "loss.csv"
    write_loss_log([(1, 0.5), (2, 0.25)], p)
    assert p.read_text() == "step,loss\n1,0.5\n2,0.25\n"
