"""Fusion pipeline operations against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from synret.blocks import layer_norm, mlp
from synret.dataset import init_node_features
from synret.errors import DataError
from synret.hierarchy import HierarchyIndex
from synret.params import init_params
from synret.pipeline import (
    enhance_entities,
    text_forward,
    video_forward,
)
from synret.reference import fuse_actions, fuse_entities, fuse_global, pair_forward
from synret.rng import SplitMix64

from test_fuzz import FUZZ


def make_index(mu2, mu3=(), mu4=(), parent3=(), adj_children=None):
    n3 = len(mu3)
    return HierarchyIndex(
        mu2=list(mu2),
        mu3=list(mu3),
        mu4=list(mu4),
        parent3=list(parent3) or [0] * n3,
        adj_children=adj_children if adj_children is not None else [[] for _ in range(n3)],
    )


class TestInitNodeFeatures:
    def test_verb_row_lookup(self):
        rng = SplitMix64(2)
        text = rng.uniform_sym((7, 8))  # 6 tokens + CLS
        f1, f2, f3, f4 = init_node_features(make_index(mu2=[4]), text)
        assert np.array_equal(f1, text[0])
        assert np.array_equal(f2[0], text[4])

    def test_exist_row_is_word_mean(self):
        rng = SplitMix64(3)
        text = rng.uniform_sym((4, 8))  # 3 tokens
        _, f2, _, _ = init_node_features(make_index(mu2=[None]), text)
        assert np.allclose(f2[0], text[1:].mean(axis=0), atol=1e-15)

    def test_full_lookup_oracle(self):
        rng = SplitMix64(4)
        text = rng.uniform_sym((7, 8))
        idx = make_index(mu2=[2, None], mu3=[1, 5], mu4=[3], parent3=[0, 1],
                         adj_children=[[0], []])
        f1, f2, f3, f4 = init_node_features(idx, text)
        assert np.array_equal(f2[0], text[2])
        assert np.allclose(f2[1], text[1:].mean(axis=0))
        assert np.array_equal(f3, text[[1, 5]])
        assert np.array_equal(f4, text[[3]])

    def test_position_out_of_range(self):
        text = SplitMix64(5).uniform_sym((3, 8))
        with pytest.raises(DataError, match="out of range"):
            init_node_features(make_index(mu2=[3]), text)


class TestEnhanceEntities:
    def setup_method(self):
        self.params = init_params(11, 8, max_frames=4)
        self.rng = SplitMix64(12)

    def test_no_adjectives_keeps_projection(self):
        f3 = self.rng.uniform_sym((1, 8))
        e3p, f3p, _ = enhance_entities(f3, np.zeros((0, 8)), [[]], self.params)
        u, _ = mlp(f3[0], self.params.mlp4)
        want, _ = layer_norm(f3[0] + u, self.params.ln_enhance)
        assert np.abs(e3p[0] - want).max() < 1e-14
        assert np.array_equal(f3p[0], e3p[0])

    def test_single_adjective_full_weight(self):
        f3 = self.rng.uniform_sym((1, 8))
        f4 = self.rng.uniform_sym((1, 8))
        e3p, f3p, cache = enhance_entities(f3, f4, [[0]], self.params)
        assert np.array_equal(cache.weights, [1.0])
        fused, _ = mlp(np.concatenate([e3p[0], f4[0]]), self.params.fusion)
        assert np.abs(f3p[0] - (e3p[0] + fused)).max() < 1e-14

    def test_two_adjectives_match_formula_oracle(self):
        f3 = self.rng.uniform_sym((1, 8))
        f4 = self.rng.uniform_sym((2, 8))
        e3p, f3p, _ = enhance_entities(f3, f4, [[0, 1]], self.params)
        # straight-line recompute
        u = self.params.mlp4.w2 @ _gelu(self.params.mlp4.w1 @ f3[0] + self.params.mlp4.b1) + self.params.mlp4.b2
        want_e = _ln(f3[0] + u, self.params.ln_enhance)
        logits = [float(want_e @ f4[j]) for j in range(2)]
        exps = [math.exp(v - max(logits)) for v in logits]
        alpha = [e / sum(exps) for e in exps]
        gamma = alpha[0] * f4[0] + alpha[1] * f4[1]
        cat = np.concatenate([want_e, gamma])
        fused = self.params.fusion.w2 @ _gelu(self.params.fusion.w1 @ cat + self.params.fusion.b1) + self.params.fusion.b2
        assert np.abs(e3p[0] - want_e).max() < 1e-10
        assert np.abs(f3p[0] - (want_e + fused)).max() < 1e-10


@FUZZ
@given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), duplicated=st.booleans())
@example(counts=[1], seed=0, duplicated=False)
@example(counts=[3, 0, 2], seed=1, duplicated=True)
def test_enhancement_matches_per_entity_oracle(counts, seed, duplicated):
    """The stacked adjective attention against a straight-line loop over the
    entities, with each entity's adjective rows scattered through f4. A single
    adjective takes weight 1.0 and is copied bit for bit; duplicated rows
    split the weight evenly."""
    d = 8
    params = init_params(13, d, max_frames=1)
    rng = np.random.default_rng(seed)
    f3 = rng.standard_normal((len(counts), d))
    f4 = rng.standard_normal((sum(counts), d))
    order = rng.permutation(sum(counts)).tolist()
    adj_children = [order[sum(counts[:i]):sum(counts[:i + 1])] for i in range(len(counts))]
    if duplicated:
        for kids in adj_children:
            f4[kids] = f4[kids[:1]]
    e3p, f3p, cache = enhance_entities(f3, f4, adj_children, params)
    assert cache.rows.tolist() == [i for i, n in enumerate(counts) if n]
    for i, kids in enumerate(adj_children):
        u = params.mlp4.w2 @ _gelu(params.mlp4.w1 @ f3[i] + params.mlp4.b1) + params.mlp4.b2
        want_e = _ln(f3[i] + u, params.ln_enhance)
        assert np.abs(e3p[i] - want_e).max() < 1e-12
        if not kids:
            assert np.array_equal(f3p[i], e3p[i])
            continue
        logits = [float(want_e @ f4[j]) for j in kids]
        exps = [math.exp(v - max(logits)) for v in logits]
        alpha = [x / sum(exps) for x in exps]
        gamma = sum(a * f4[j] for a, j in zip(alpha, kids))
        cat = np.concatenate([want_e, gamma])
        fused = params.fusion.w2 @ _gelu(params.fusion.w1 @ cat + params.fusion.b1) + params.fusion.b2
        r = cache.rows.tolist().index(i)
        weights, pooled = cache.weights[cache.owner == r], cache.fusion.x[r, d:]
        assert np.abs(weights - alpha).max() < 1e-12
        assert np.abs(pooled - gamma).max() < 1e-12
        assert np.abs(f3p[i] - (want_e + fused)).max() < 1e-12
        if len(kids) == 1:
            assert weights.tolist() == [1.0] and np.array_equal(pooled, f4[kids[0]])
        if duplicated:
            assert np.abs(weights - 1.0 / len(kids)).max() <= 1e-15
            assert np.abs(pooled - f4[kids[0]]).max() <= 1e-14


def _gelu(z):
    return z * 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2)))


def _ln(x, p, eps=1e-5):
    m = x.mean()
    var = ((x - m) ** 2).mean()
    return (x - m) / math.sqrt(var + eps) * p.gain + p.bias


class TestFuseGlobal:
    def test_single_frame(self):
        rng = SplitMix64(21)
        e1, frame = rng.uniform_sym(8), rng.uniform_sym((1, 8))
        w, ev1 = fuse_global(e1, frame)
        assert np.array_equal(w, [1.0])
        assert np.array_equal(ev1, frame[0])

    def test_identical_frames(self):
        rng = SplitMix64(22)
        e1 = rng.uniform_sym(8)
        frames = np.tile(rng.uniform_sym(8), (4, 1))
        _, ev1 = fuse_global(e1, frames)
        assert np.allclose(ev1, frames[0], atol=1e-14)

    def test_matches_oracle_and_hull(self):
        rng = SplitMix64(23)
        e1 = rng.uniform_sym(8)
        frames = rng.uniform_sym((4, 8))
        w, ev1 = fuse_global(e1, frames)
        logits = frames @ e1
        exps = np.exp(logits - logits.max())
        want_w = exps / exps.sum()
        assert np.abs(w - want_w).max() < 1e-12
        assert np.abs(ev1 - want_w @ frames).max() < 1e-12
        assert (ev1 >= frames.min(axis=0) - 1e-12).all()
        assert (ev1 <= frames.max(axis=0) + 1e-12).all()


class TestFuseActions:
    def test_full_selection_is_plain_mean(self):
        rng = SplitMix64(31)
        e2, g = rng.uniform_sym((2, 8)), rng.uniform_sym((3, 8))
        psi2, ev2 = fuse_actions(e2, g, lambda_frame=3)
        for i in range(2):
            assert list(psi2[i]) == [0, 1, 2]
            assert np.allclose(ev2[i], g.mean(axis=0), atol=1e-15)

    def test_dominant_frame_single_pick(self):
        e2 = np.array([[1.0, 0.0, 0.0, 0.0]])
        g = np.array([[0.1, 0, 0, 0], [5.0, 0, 0, 0], [0.2, 0, 0, 0]])
        psi2, ev2 = fuse_actions(e2, g, lambda_frame=1)
        assert list(psi2[0]) == [1]
        assert np.array_equal(ev2[0], g[1])

    def test_matches_sort_and_mean_oracle(self):
        rng = SplitMix64(32)
        e2, g = rng.uniform_sym((3, 8)), rng.uniform_sym((5, 8))
        psi2, ev2 = fuse_actions(e2, g, lambda_frame=2)
        for i in range(3):
            scores = [float(e2[i] @ g[j]) for j in range(5)]
            want = sorted(sorted(range(5), key=lambda j: (-scores[j], j))[:2])
            assert list(psi2[i]) == want
            assert np.abs(ev2[i] - g[want].mean(axis=0)).max() < 1e-12


class TestFuseEntities:
    def test_full_selection_mean_of_everything(self):
        rng = SplitMix64(41)
        e3 = rng.uniform_sym((1, 8))
        patches = rng.uniform_sym((3, 4, 8))
        psi2 = [np.array([0, 1, 2])]
        _, _, ev3 = fuse_entities(e3, patches, [0], psi2, lambda_patch=4)
        assert np.abs(ev3[0] - patches.reshape(-1, 8).mean(axis=0)).max() < 1e-12

    def test_single_dominant_patch(self):
        e3 = np.array([[1.0, 0.0]])
        patches = np.zeros((1, 3, 2))
        patches[0, 1] = [7.0, 0.0]
        _, _, ev3 = fuse_entities(e3, patches, [0], [np.array([0])], lambda_patch=1)
        assert np.array_equal(ev3[0], patches[0, 1])

    def test_matches_exhaustive_oracle(self):
        rng = SplitMix64(42)
        e3 = rng.uniform_sym((2, 8))
        patches = rng.uniform_sym((4, 9, 8))
        psi2 = [np.array([1, 3]), np.array([0, 2])]
        parent3 = [0, 1]
        psi3, ev3_frames, ev3 = fuse_entities(e3, patches, parent3, psi2, lambda_patch=4)
        for i in range(2):
            per_frame = []
            for j in psi2[parent3[i]]:
                scores = [float(e3[i] @ patches[j, x]) for x in range(9)]
                top = sorted(sorted(range(9), key=lambda x: (-scores[x], x))[:4])
                per_frame.append(patches[j][top].mean(axis=0))
            want = np.mean(per_frame, axis=0)
            assert np.abs(ev3[i] - want).max() < 1e-12

    def test_literal_patch_norm_divides_by_budget(self):
        rng = SplitMix64(43)
        e3 = rng.uniform_sym((1, 8))
        patches = rng.uniform_sym((3, 5, 8))
        psi2 = [np.array([0, 2])]
        _, frames_default, default = fuse_entities(e3, patches, [0], psi2, lambda_patch=3)
        _, _, literal = fuse_entities(e3, patches, [0], psi2, lambda_patch=3,
                                      literal_patch_norm=True)
        assert np.allclose(default[0], frames_default[0].mean(axis=0), atol=1e-15)
        assert np.allclose(literal[0], frames_default[0].sum(axis=0) / 3.0, atol=1e-15)
        # two selected frames, budget 3: the literal normalizer rescales
        assert np.allclose(literal[0], default[0] * 2.0 / 3.0, atol=1e-12)


class TestPairInvariants:
    def test_frame_permutation_covariance(self, small_setup):
        bundles, params, cfg = small_setup
        params = params.copy()
        params.pos_emb[...] = 0.0  # temporal encoding must not pin frame order
        b = bundles[0]
        tc = text_forward([b], params)[0]
        vc = video_forward([b], params)[0][0]
        pf = pair_forward(tc, vc, cfg)

        perm = [2, 0, 3, 1]
        b2 = type(b)(pair_id=b.pair_id, index=b.index,
                     text=b.text, frames=b.frames[perm], patches=b.patches[perm])
        vc2 = video_forward([b2], params)[0][0]
        pf2 = pair_forward(tc, vc2, cfg)

        assert np.allclose(pf2.ev1, pf.ev1, atol=1e-12)
        assert np.allclose(pf2.ev2, pf.ev2, atol=1e-12)
        assert np.allclose(pf2.ev3, pf.ev3, atol=1e-12)
        inverse = np.argsort(perm)
        for sel, sel2 in zip(pf.psi2, pf2.psi2):
            assert sorted(inverse[j] for j in sel) == sorted(sel2.tolist())

    def test_pooled_features_are_exact_means(self, small_setup):
        bundles, params, cfg = small_setup
        for b in bundles:
            tc = text_forward([b], params)[0]
            vc = video_forward([b], params)[0][0]
            pf = pair_forward(tc, vc, cfg)
            for i, sel in enumerate(pf.psi2):
                assert np.array_equal(pf.ev2[i], vc.g[sel].mean(axis=0))
            for i, parent in enumerate(b.index.parent3):
                sel_frames = pf.psi2[parent]
                rebuilt = [
                    vc.patches[j][pf.psi3[i][jj]].mean(axis=0)
                    for jj, j in enumerate(sel_frames)
                ]
                assert np.allclose(pf.ev3[i], np.mean(rebuilt, axis=0), atol=1e-15)

    def test_growing_budget_with_equal_scores_extends_mean(self):
        # all-equal selection scores: raising the budget includes lower indices first
        e2 = np.zeros((1, 4))
        rng = SplitMix64(55)
        g = rng.uniform_sym((4, 4))
        _, ev2_two = fuse_actions(e2, g, lambda_frame=2)
        _, ev2_all = fuse_actions(e2, g, lambda_frame=4)
        assert np.allclose(ev2_two[0], g[[0, 1]].mean(axis=0), atol=1e-15)
        assert np.allclose(ev2_all[0], g.mean(axis=0), atol=1e-15)
