"""Patch features stay float32 in memory and are widened to float64 where
they are read. Widening f32 to f64 is exact, so every score, selection and
gradient must equal, bit for bit, what the same values held as float64 give.
A product left with one float32 operand rounds differently at this width."""

import dataclasses

import numpy as np

from synret.config import RunConfig
from synret.dataset import load_bundles
from synret.params import init_params
from synret.pipeline import text_forward, video_forward
from synret.reference import pair_forward
from synret.scoring import score_matrix
from synret.tensor_store import gen_fixture
from synret.train import batch_loss_and_grads

D = 32


def _stored_and_widened(tmp_path):
    manifest = gen_fixture(41, 5, 7, 4, 9, D, tmp_path)
    stored = load_bundles(manifest)
    widened = [dataclasses.replace(b, patches=b.patches.astype(np.float64)) for b in stored]
    return stored, widened


def _selections(psi3):
    return [[sel.tolist() for sel in per_entity] for per_entity in psi3]


def test_load_bundles_keeps_patches_float32(tmp_path):
    stored, _ = _stored_and_widened(tmp_path)
    for b in stored:
        assert b.patches.dtype == np.float32
        assert b.text.dtype == np.float64 and b.frames.dtype == np.float64


def test_float32_patches_score_and_train_bit_identically(tmp_path):
    stored, widened = _stored_and_widened(tmp_path)
    params = init_params(43, D, max_frames=4)
    for literal in (False, True):
        cfg = RunConfig(d=D, max_frames=4, lambda_frame=2, lambda_patch=3,
                        literal_patch_norm=literal)
        assert np.array_equal(score_matrix(stored, stored, params, cfg),
                              score_matrix(widened, widened, params, cfg))

        tc = text_forward(stored, params)[0]
        assert tc.e3.shape[0] > 0
        pairs = zip(video_forward(stored, params)[0], video_forward(widened, params)[0])
        for j, (vid_a, vid_b) in enumerate(pairs):
            for i in range(len(stored)):
                pa = pair_forward(tc.single(i), vid_a, cfg)
                pb = pair_forward(tc.single(i), vid_b, cfg)
                assert np.array_equal(pa.ev3, pb.ev3), (i, j)
                assert _selections(pa.psi3) == _selections(pb.psi3), (i, j)

        loss_a, grads_a, scores_a = batch_loss_and_grads(stored, params, cfg)
        loss_b, grads_b, scores_b = batch_loss_and_grads(widened, params, cfg)
        assert loss_a == loss_b and np.array_equal(scores_a, scores_b)
        for (name, ga), (_, gb) in zip(grads_a.named_tensors(), grads_b.named_tensors()):
            assert np.array_equal(ga, gb), name
