"""Numerical blocks against straight-line reimplementations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synret.blocks import (
    LN_EPS,
    _gelu_with_cdf,
    layer_norm,
    layer_norm_backward,
    mlp,
    softmax,
    transformer_backward,
    transformer_encode,
)
from synret.errors import DataError
from synret.reference import top_k_indices
from synret.params import LayerNormParams, MlpParams, init_params, zeros_like
from synret.pipeline import enhance_entities
from synret.rng import SplitMix64


def ln_params(d, gain=1.0, bias=0.0):
    return LayerNormParams(gain=np.full(d, float(gain)), bias=np.full(d, float(bias)))


def oracle_layer_norm(x, gain, bias, eps):
    mean = sum(x) / len(x)
    var = sum((v - mean) ** 2 for v in x) / len(x)
    return np.array([(v - mean) / math.sqrt(var + eps) * g + b
                     for v, g, b in zip(x, gain, bias)])


def oracle_gelu(z):
    return np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2))) for v in z])


class TestLayerNorm:
    def test_constant_vector_gives_zero(self):
        y, _ = layer_norm(np.full(6, 3.7), ln_params(6))
        assert np.allclose(y, 0.0, atol=1e-12)

    def test_unit_variance_symmetry(self):
        y, _ = layer_norm(np.array([1.0, -1.0]), ln_params(2), eps=1e-300)
        assert np.allclose(y, [1.0, -1.0], atol=1e-12)

    def test_matches_formula_oracle(self):
        rng = SplitMix64(5)
        x = rng.uniform_sym(8)
        p = LayerNormParams(gain=rng.uniform_sym(8), bias=rng.uniform_sym(8))
        y, _ = layer_norm(x, p)
        want = oracle_layer_norm(list(x), list(p.gain), list(p.bias), 1e-5)
        assert np.abs(y - want).max() < 1e-12

    def test_rowwise(self):
        rng = SplitMix64(6)
        x = rng.uniform_sym((3, 8))
        p = ln_params(8)
        y, _ = layer_norm(x, p)
        for i in range(3):
            yi, _ = layer_norm(x[i], p)
            assert np.array_equal(y[i], yi)

    @pytest.mark.parametrize("shape", [(16,), (1, 7), (3, 8), (5, 16), (40, 512)])
    def test_sum_form_is_the_mean_form_bit_for_bit(self, shape):
        """The forward and backward take their means as sum / n; that is
        numpy's `mean`, bit for bit."""
        rng = SplitMix64(7)
        x = 3.0 * rng.uniform_sym(shape) + 0.5
        p = LayerNormParams(gain=rng.uniform_sym(shape[-1]), bias=rng.uniform_sym(shape[-1]))
        ybar = rng.uniform_sym(shape)
        centered = x - x.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + LN_EPS)
        xhat = centered * inv_std
        dxhat = ybar * p.gain
        want = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        y, cache = layer_norm(x, p)
        xbar = layer_norm_backward(ybar, cache, p, ln_params(shape[-1], gain=0.0))
        assert np.array_equal(y, xhat * p.gain + p.bias)
        assert np.array_equal(xbar, want)


class TestMlp:
    def test_zero_params_give_zero(self):
        mp = MlpParams(w1=np.zeros((4, 4)), b1=np.zeros(4),
                       w2=np.zeros((4, 4)), b2=np.zeros(4))
        y, _ = mlp(np.ones(4), mp)
        assert np.array_equal(y, np.zeros(4))

    def test_identity_weights_large_input(self):
        # gelu(x) ~ x for x >= 3, so I,I acts as identity there
        mp = MlpParams(w1=np.eye(4), b1=np.zeros(4), w2=np.eye(4), b2=np.zeros(4))
        x = np.array([3.0, 4.0, 5.0, 6.0])
        y, _ = mlp(x, mp)
        assert np.abs(y - x).max() < 1e-2

    def test_matches_matrix_oracle(self):
        rng = SplitMix64(9)
        d = 8
        mp = MlpParams(w1=rng.uniform_sym((d, d)), b1=rng.uniform_sym(d),
                       w2=rng.uniform_sym((d, d)), b2=rng.uniform_sym(d))
        x = rng.uniform_sym(d)
        y, _ = mlp(x, mp)
        hidden = oracle_gelu(mp.w1 @ x + mp.b1)
        want = mp.w2 @ hidden + mp.b2
        assert np.abs(y - want).max() < 1e-12

    def test_fusion_shape_matches_oracle(self):
        rng = SplitMix64(10)
        d = 6
        mp = MlpParams(w1=rng.uniform_sym((d, 2 * d)), b1=rng.uniform_sym(d),
                       w2=rng.uniform_sym((d, d)), b2=rng.uniform_sym(d))
        x = rng.uniform_sym(2 * d)
        y, _ = mlp(x, mp)
        want = mp.w2 @ oracle_gelu(mp.w1 @ x + mp.b1) + mp.b2
        assert np.abs(y - want).max() < 1e-12

    def test_gelu_matches_erf_oracle(self):
        z = np.linspace(-5, 5, 41)
        assert np.abs(_gelu_with_cdf(z)[0] - oracle_gelu(z)).max() < 1e-14


def attend(f3_row, keys, seed):
    """One entity's adjective attention in `enhance_entities`: its query,
    softmax weights over the adjective rows, and pooled row."""
    d = keys.shape[1]
    params = init_params(seed, d, heads=1, max_frames=1)
    e3p, _, cache = enhance_entities(f3_row[None], keys, [list(range(len(keys)))], params)
    return e3p[0], cache.weights, cache.fusion.x[0, d:]


class TestAttend:
    def test_single_key(self):
        rng = SplitMix64(12)
        f3, k = rng.uniform_sym(5), rng.uniform_sym((1, 5))
        _, w, pooled = attend(f3, k, 12)
        assert np.array_equal(w, [1.0])
        assert np.array_equal(pooled, k[0])

    def test_identical_keys_split_evenly(self):
        rng = SplitMix64(13)
        f3 = rng.uniform_sym(5)
        k = np.tile(rng.uniform_sym(5), (2, 1))
        _, w, pooled = attend(f3, k, 13)
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)
        assert np.allclose(pooled, k[0], atol=1e-15)

    def test_matches_formula_oracle(self):
        rng = SplitMix64(14)
        f3 = rng.uniform_sym(6)
        keys = rng.uniform_sym((5, 6))
        q, w, pooled = attend(f3, keys, 14)
        exps = [math.exp(float(keys[j] @ q)) for j in range(5)]
        tot = sum(exps)
        want_w = np.array([e / tot for e in exps])
        want_p = sum(want_w[j] * keys[j] for j in range(5))
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.abs(w - want_w).max() < 1e-12
        assert np.abs(pooled - want_p).max() < 1e-12


def oracle_transformer(x, tp, pos, heads):
    """Independent step-by-step re-derivation (loops, no shared helpers)."""
    n, d = x.shape
    dh = d // heads
    x0 = x + pos[:n]
    q, k, v = x0 @ tp.wq.T, x0 @ tp.wk.T, x0 @ tp.wv.T
    out_heads = np.zeros((n, d))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = q[:, sl] @ k[:, sl].T / math.sqrt(dh)
        for i in range(n):
            row = np.exp(s[i] - s[i].max())
            a = row / row.sum()
            out_heads[i, sl] = a @ v[:, sl]
    u = x0 + out_heads @ tp.wo.T

    def ln(mat, gain, bias):
        out = np.zeros_like(mat)
        for i in range(mat.shape[0]):
            m = mat[i].mean()
            var = ((mat[i] - m) ** 2).mean()
            out[i] = (mat[i] - m) / math.sqrt(var + 1e-5) * gain + bias
        return out

    x1 = ln(u, tp.ln_attn.gain, tp.ln_attn.bias)
    hidden = x1 @ tp.ffn_w1.T + tp.ffn_b1
    hidden = hidden * 0.5 * (1.0 + np.vectorize(math.erf)(hidden / math.sqrt(2)))
    x2 = x1 + hidden @ tp.ffn_w2.T + tp.ffn_b2
    return ln(x2, tp.ln_ffn.gain, tp.ln_ffn.bias)


class TestTransformer:
    def test_matches_step_by_step_oracle(self):
        params = init_params(3, 8, max_frames=6)
        rng = SplitMix64(3)
        x = rng.uniform_sym((4, 8))
        got, _ = transformer_encode(x, params.temporal, params.pos_emb, params.heads)
        want = oracle_transformer(x, params.temporal, params.pos_emb, params.heads)
        assert np.abs(got - want).max() < 1e-10

    def test_single_frame_attention_is_one(self):
        params = init_params(4, 8, max_frames=3)
        x = SplitMix64(8).uniform_sym((1, 8))
        _, cache = transformer_encode(x, params.temporal, params.pos_emb, params.heads)
        assert np.array_equal(cache.attn[0], np.ones((1, 8, 1, 1)))

    def test_stacked_videos_match_one_at_a_time(self):
        # attention stays inside each video and runs once per length, bit for
        # bit as one video at a time; every row-wise part runs once
        params = init_params(6, 16, heads=2, max_frames=4)
        rng = SplitMix64(6)
        lengths = [3, 1, 4, 3, 2, 4]
        videos = [rng.uniform_sym((n, 16)) for n in lengths]
        ybars = [rng.uniform_sym(v.shape) for v in videos]
        got, cache = transformer_encode(np.concatenate(videos), params.temporal,
                                        params.pos_emb, params.heads, lengths)
        assert [r.shape for r in cache.group_rows] == [(2, 3), (1, 1), (2, 4), (1, 2)]

        def split(rows):  # (N, 16) -> (heads, N, 8)
            return rows.reshape(len(rows), 2, 8).transpose(1, 0, 2)

        attn, heads_out, lo = {}, [], 0
        for n in lengths:
            q, k, v = (split(m[lo:lo + n]) for m in (cache.q, cache.k, cache.v))
            a = softmax(np.einsum("hid,hjd->hij", q, k) * (1.0 / np.sqrt(8)), axis=-1)
            heads_out.append(np.einsum("hij,hjd->hid", a, v).transpose(1, 0, 2).reshape(n, 16))
            attn[lo], lo = a, lo + n
        assert np.array_equal(cache.heads_out, np.concatenate(heads_out))
        for rows, group in zip(cache.group_rows, cache.attn):
            for r, a in zip(rows, group):
                assert np.array_equal(a, attn[r[0]])

        g_stacked = zeros_like(params)
        xbar = transformer_backward(np.concatenate(ybars), cache, params.temporal,
                                    g_stacked.temporal, g_stacked.pos_emb, params.heads)
        g_single = zeros_like(params)
        want, want_xbar = [], []
        for v, ybar in zip(videos, ybars):
            y, c = transformer_encode(v, params.temporal, params.pos_emb, params.heads)
            want.append(y)
            want_xbar.append(transformer_backward(ybar, c, params.temporal, g_single.temporal,
                                                  g_single.pos_emb, params.heads))
        assert np.abs(got - np.concatenate(want)).max() < 1e-12
        assert np.abs(xbar - np.concatenate(want_xbar)).max() < 1e-12
        for (name, a), (_, b) in zip(g_stacked.named_tensors(), g_single.named_tensors()):
            assert np.abs(a - b).max() < 1e-12, name

    def test_zero_params_give_double_layernorm(self):
        # with all projections zero the layer reduces to LN(LN(x + pos))
        params = zeros_like(d=8, max_frames=4)
        params.temporal.ln_attn.gain[...] = 1.0
        params.temporal.ln_ffn.gain[...] = 1.0
        pos = SplitMix64(21).uniform_sym((4, 8))
        x = np.zeros((4, 8))
        got, _ = transformer_encode(x, params.temporal, pos, 8)
        ln = lambda row: (row - row.mean()) / math.sqrt(((row - row.mean()) ** 2).mean() + 1e-5)
        want = np.stack([ln(ln(pos[i])) for i in range(4)])
        assert np.abs(got - want).max() < 1e-12

    def test_permutation_equivariance_without_positions(self):
        params = init_params(5, 8, max_frames=8)
        params.pos_emb[...] = 0.0
        x = SplitMix64(30).uniform_sym((6, 8))
        perm = [5, 2, 0, 3, 1, 4]
        a, _ = transformer_encode(x, params.temporal, params.pos_emb, params.heads)
        b, _ = transformer_encode(x[perm], params.temporal, params.pos_emb, params.heads)
        assert np.allclose(b, a[perm], atol=1e-12)

    def test_too_many_frames_rejected(self):
        params = init_params(6, 8, max_frames=2)
        with pytest.raises(DataError, match="positional"):
            transformer_encode(np.zeros((3, 8)), params.temporal, params.pos_emb, 8)


class TestTopK:
    def test_basic(self):
        assert list(top_k_indices(np.array([0.9, 0.1, 0.5, 0.7]), 2)) == [0, 3]

    def test_tie_goes_to_lower_index(self):
        assert list(top_k_indices(np.array([0.5, 0.5, 0.5]), 2)) == [0, 1]

    def test_k_exceeds_length(self):
        assert list(top_k_indices(np.array([1.0, 2.0]), 5)) == [0, 1]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            top_k_indices(np.array([]), 1)
        with pytest.raises(DataError):
            top_k_indices(np.array([1.0]), 0)

    def test_against_sort_oracle_bulk(self):
        rng = SplitMix64(77)
        for trial in range(1000):
            n = 1 + rng.randint(64)
            k = 1 + rng.randint(8)
            scores = rng.uniform_sym(n)
            if trial % 4 == 0 and n >= 2:
                scores[rng.randint(n)] = scores[rng.randint(n)]
            want = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[: min(k, n)])
            assert list(top_k_indices(scores, k)) == want

    @settings(max_examples=100, deadline=None)
    @given(scores=st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
                           min_size=1, max_size=20),
           k=st.integers(min_value=1, max_value=8))
    def test_adversarial_ties_property(self, scores, k):
        arr = np.array(scores)
        want = sorted(sorted(range(len(arr)), key=lambda i: (-arr[i], i))[: min(k, len(arr))])
        assert list(top_k_indices(arr, k)) == want


def test_softmax_sums_to_one():
    rng = SplitMix64(91)
    for _ in range(20):
        x = rng.uniform_sym(7) * 10
        assert abs(softmax(x).sum() - 1.0) < 1e-12
