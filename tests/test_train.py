"""Contrastive loss identities, optimizer behavior, and training determinism."""

import errno
import gc
import weakref

import numpy as np
import pytest

from synret.config import RunConfig
from synret.dataset import synthetic_bundles
from synret.errors import DataError, NumericalError
import synret.params
from synret.params import Adam, init_params, load_checkpoint, save_checkpoint, zeros_like
from synret.rng import SplitMix64
from synret.tensor_store import write_tensor
import synret.train
from synret.train import (
    batch_loss_and_grads,
    loss_log,
    selection_margins,
    symmetric_ce_loss,
    train,
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

    @pytest.mark.parametrize("block", [7, 1000, synret.params.ADAM_BLOCK])
    def test_blocked_update_equals_whole_tensor_formula(self, monkeypatch, block):
        """At 7 and 1000 elements, tensors straddle block edges and the last
        block of the 1872-element buffer is partial."""
        monkeypatch.setattr(synret.params, "ADAM_BLOCK", block)
        params = init_params(3, 8, max_frames=3)
        lr, beta1, beta2, eps = 1e-2, 0.9, 0.999, 1e-8
        want = {n: t.copy() for n, t in params.named_tensors()}
        m = {n: np.zeros_like(t) for n, t in want.items()}
        v = {n: np.zeros_like(t) for n, t in want.items()}
        opt = Adam(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        rng = SplitMix64(5)
        for t in range(1, 6):
            grads = zeros_like(params)
            grads.flat[...] = rng.uniform_sym(grads.flat.size)
            opt.step(params, grads)
            bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
            for name, g in grads.named_tensors():
                m[name] = m[name] * beta1 + (1.0 - beta1) * g
                v[name] = v[name] * beta2 + (1.0 - beta2) * g * g
                want[name] = want[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
        for name, t in params.named_tensors():
            assert np.array_equal(t, want[name]), name

    def test_a_tensor_fed_twice_in_one_step_raises(self):
        params = init_params(3, 8, max_frames=3)
        before = params.flat.copy()
        opt = Adam(params, lr=1e-2)
        opt.grads.mlp1.w1 += np.ones((8, 8))
        with pytest.raises(RuntimeError, match="second gradient"):
            opt.grads.mlp1.w1 += np.ones((8, 8))
        with pytest.raises(RuntimeError, match="no gradient .* for mlp1.b1, "):
            opt.update(params)
        assert np.array_equal(params.flat, before) and opt.t == 0

    def test_an_update_with_a_tensor_left_unfed_raises(self):
        params = init_params(3, 8, max_frames=3)
        before = params.flat.copy()
        opt = Adam(params, lr=1e-2)
        for name, leaf in opt.grads.named_tensors():
            if name != "temporal.ln_ffn.bias":
                leaf += np.ones(leaf.shape)
        with pytest.raises(RuntimeError, match="for temporal.ln_ffn.bias$"):
            opt.update(params)
        assert np.array_equal(params.flat, before) and opt.t == 0

    def test_a_gradient_of_another_shape_is_refused(self):
        """Even one of the same size, which the flat moments could take."""
        opt = Adam(init_params(3, 8, max_frames=3), lr=1e-2)
        with pytest.raises(ValueError, match=r"shape \(16, 8\) for a tensor of shape \(8, 16\)"):
            opt.grads.fusion.w1 += np.ones((16, 8))
        opt.grads.fusion.w1 += np.ones((8, 16))


def _assert_tensors_tile_flat(p):
    """Every named tensor is a view of `p.flat`, and the views lie end to end
    in `named_tensors()` order and cover it exactly."""
    assert p.flat.dtype == np.float64 and p.flat.base is None and p.flat.flags.c_contiguous
    start = p.flat.__array_interface__["data"][0]
    at = 0
    for name, t in p.named_tensors():
        assert t.base is p.flat and t.flags.c_contiguous, name
        assert t.__array_interface__["data"][0] - start == at * p.flat.itemsize, name
        at += t.size
    assert at == p.flat.size


class TestParamBuffer:
    def test_zeros_like_tiles_one_buffer(self):
        p = zeros_like(d=16, max_frames=4)
        _assert_tensors_tile_flat(p)
        _assert_tensors_tile_flat(zeros_like(p))
        assert "flat" not in [name for name, _ in p.named_tensors()]
        assert len(p.named_tensors()) == 47

    def test_init_params_tiles_one_buffer(self):
        _assert_tensors_tile_flat(init_params(4, 8, max_frames=3))

    def test_copy_is_one_new_buffer(self):
        p = init_params(4, 8, max_frames=3)
        q = p.copy()
        _assert_tensors_tile_flat(q)
        assert not np.shares_memory(p.flat, q.flat)
        assert np.array_equal(p.flat, q.flat)

    def test_load_checkpoint_tiles_one_buffer(self, tmp_path):
        p = init_params(4, 8, max_frames=3)
        save_checkpoint(p, tmp_path, seed=4)
        back = load_checkpoint(tmp_path)
        _assert_tensors_tile_flat(back)
        assert np.array_equal(back.flat, p.flat.astype(np.float32))

    def test_load_checkpoint_widens_float32_through_the_view(self, tmp_path):
        save_checkpoint(zeros_like(d=8, max_frames=3), tmp_path, seed=0)
        value = np.arange(8, dtype=np.float32) / 3
        write_tensor(value, tmp_path / "temporal.ln_ffn.gain.shet")
        back = load_checkpoint(tmp_path)
        gain = back.temporal.ln_ffn.gain
        assert gain.dtype == np.float64 and np.array_equal(gain, value)
        _assert_tensors_tile_flat(back)
        assert np.count_nonzero(back.flat) == np.count_nonzero(value)

    def test_load_checkpoint_rejects_a_wrong_shaped_tensor(self, tmp_path):
        save_checkpoint(zeros_like(d=8, max_frames=3), tmp_path, seed=0)
        write_tensor(np.zeros((8, 15), dtype=np.float32), tmp_path / "fusion.w1.shet")
        message = r"^tensor fusion\.w1: shape \(8, 15\) != expected \(8, 16\)$"
        with pytest.raises(DataError, match=message):
            load_checkpoint(tmp_path)


class TestTraining:
    def test_zero_lr_training_is_identity(self):
        bundles = synthetic_bundles(5, 4, 5, 3, 4, 8)
        params = init_params(9, 8, max_frames=3)
        before = {n: t.copy() for n, t in params.named_tensors()}
        cfg = RunConfig(d=8, max_frames=3, seed=5, batch_size=4, steps=3, lr=0.0)
        train(bundles, params, cfg)
        for name, t in params.named_tensors():
            assert np.array_equal(t, before[name]), name

    def test_loss_decreases_on_small_overfit(self):
        bundles = synthetic_bundles(6, 4, 5, 3, 4, 8)
        params = init_params(10, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=6, batch_size=4, steps=60, lr=1e-3)
        curve = train(bundles, params, cfg)
        assert curve[-1][1] < curve[0][1] * 0.5

    def test_same_seed_byte_identical_checkpoints(self, tmp_path):
        cfg = RunConfig(d=8, max_frames=3, seed=11, batch_size=2, steps=8, lr=1e-3)
        outs = []
        for sub in ("a", "b"):
            bundles = synthetic_bundles(8, 5, 5, 3, 4, 8)
            params = init_params(cfg.seed, 8, max_frames=3)
            train(bundles, params, cfg)
            out = tmp_path / sub
            save_checkpoint(params, out, seed=cfg.seed)
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f.name

    def test_batching_drops_remainder_but_still_trains(self):
        # 5 pairs, batch 2: each epoch uses 4 of them, reshuffled per epoch
        bundles = synthetic_bundles(12, 5, 5, 3, 4, 8)
        params = init_params(12, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=12, batch_size=2, steps=6, lr=1e-4)
        curve = train(bundles, params, cfg)
        assert len(curve) == 6

    def test_too_few_pairs_rejected(self):
        bundles = synthetic_bundles(13, 2, 5, 3, 4, 8)
        params = init_params(13, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=13, batch_size=4, steps=1, lr=1e-4)
        with pytest.raises(DataError):
            train(bundles, params, cfg)

    def test_a_run_allocates_no_gradient_set(self, monkeypatch):
        """The backward adds into `Adam.grads`, so a run holds three
        parameter-sized buffers: the parameters and Adam's two moments."""
        calls = []

        def tracked_zeros_like(*args, **kwargs):
            calls.append(1)
            return zeros_like(*args, **kwargs)

        bundles = synthetic_bundles(15, 4, 5, 3, 4, 8)
        params = init_params(15, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=15, batch_size=2, steps=3, lr=1e-3)
        monkeypatch.setattr(synret.train, "zeros_like", tracked_zeros_like)
        monkeypatch.setattr(synret.params, "zeros_like", tracked_zeros_like)
        assert len(train(bundles, params, cfg)) == 3
        assert calls == []

    def test_the_moments_are_freed_when_train_returns(self, monkeypatch):
        """No reference cycle holds the optimizer: its moments go when
        `train` returns, with the cyclic collector off."""
        moments = []

        def tracked_adam(*args, **kwargs):
            opt = Adam(*args, **kwargs)
            moments.append(weakref.ref(opt._m))
            return opt

        monkeypatch.setattr(synret.train, "Adam", tracked_adam)
        bundles = synthetic_bundles(15, 4, 5, 3, 4, 8)
        params = init_params(15, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=15, batch_size=2, steps=2, lr=1e-3)
        gc.collect()
        gc.disable()
        try:
            train(bundles, params, cfg)
            assert len(moments) == 1 and moments[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("block", [7, synret.params.ADAM_BLOCK])
    def test_train_equals_whole_gradient_sets_and_the_adam_formula(self, monkeypatch, block):
        """Three steps of `train` over videos of 3, 2 and 1 frames leave the
        parameters bit for bit where a loop over `batch_loss_and_grads` and
        the whole-tensor Adam formula does."""
        monkeypatch.setattr(synret.params, "ADAM_BLOCK", block)
        bundles = [b for frames in (3, 2, 1) for b in synthetic_bundles(40 + frames, 2, 5,
                                                                         frames, 4, 8)]
        cfg = RunConfig(d=8, max_frames=3, seed=17, batch_size=4, steps=3, lr=1e-2)
        got = init_params(18, 8, max_frames=3)
        train(bundles, got, cfg)

        params = init_params(18, 8, max_frames=3)
        m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        rng = SplitMix64(cfg.seed)
        for t in range(1, cfg.steps + 1):
            order = list(range(len(bundles)))
            rng.shuffle(order)  # 6 pairs fill one batch of 4 per epoch
            _, grads, _ = batch_loss_and_grads([bundles[k] for k in order[:4]], params, cfg)
            g = grads.flat
            m = m * cfg.beta1 + (1.0 - cfg.beta1) * g
            v = v * cfg.beta2 + (1.0 - cfg.beta2) * g * g
            bc1, bc2 = 1.0 - cfg.beta1**t, 1.0 - cfg.beta2**t
            params.flat[...] = params.flat - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        assert np.array_equal(got.flat, params.flat)

    def test_each_gradient_evaluation_is_a_new_buffer(self):
        """Two evaluations never share a buffer, so comparing them (as
        selfcheck's determinism check does) compares two computations."""
        bundles = synthetic_bundles(16, 4, 5, 3, 4, 8)
        params = init_params(16, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=16)
        _, g1, _ = batch_loss_and_grads(bundles, params, cfg)
        _, g2, _ = batch_loss_and_grads(bundles, params, cfg)
        assert not np.shares_memory(g1.flat, g2.flat)
        assert np.array_equal(g1.flat, g2.flat)

    def test_stop_loss_halts_early(self):
        bundles = synthetic_bundles(14, 4, 5, 3, 4, 8)
        params = init_params(14, 8, max_frames=3)
        cfg = RunConfig(d=8, max_frames=3, seed=14, batch_size=4, steps=500, lr=1e-3,
                        stop_loss=0.5)
        curve = train(bundles, params, cfg)
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

    def test_non_finite_save_leaves_old_checkpoint_byte_identical(self, tmp_path):
        save_checkpoint(init_params(21, 8, max_frames=3), tmp_path, seed=21)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        params = init_params(22, 8, max_frames=3)
        params.pos_emb[-1, -1] = 1e39  # the last tensor written, beyond float32
        with pytest.raises(NumericalError, match="refusing to write non-finite tensor .*pos_emb"):
            save_checkpoint(params, tmp_path, seed=22)
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("written", [0, 1, 20])
    def test_save_failing_part_way_leaves_a_checkpoint_load_refuses(self, tmp_path, monkeypatch,
                                                                    written):
        import synret.tensor_store

        save_checkpoint(init_params(21, 8, max_frames=3), tmp_path, seed=21)
        calls = []

        def write_then_fail(tensor, path):
            if len(calls) == written:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            calls.append(path)
            write_tensor(tensor, path)

        monkeypatch.setattr(synret.tensor_store, "write_tensor", write_then_fail)
        with pytest.raises(OSError):
            save_checkpoint(init_params(22, 8, max_frames=3), tmp_path, seed=22)
        with pytest.raises(DataError, match="cannot read checkpoint metadata"):
            load_checkpoint(tmp_path)


def test_loss_log_format():
    assert loss_log([(1, 0.5), (2, 0.25)]) == "step,loss\n1,0.5\n2,0.25\n"
