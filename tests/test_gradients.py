"""Analytic gradients against central finite differences.

Block-level checks isolate each backward; the pipeline check drives the whole
model through the contrastive loss on a tie-free fixture.
"""

import numpy as np
import pytest

from types import SimpleNamespace

from synret.blocks import (
    layer_norm,
    layer_norm_backward,
    mlp,
    mlp_backward,
    softmax_vjp,
    transformer_encode,
    transformer_backward,
)
from synret.config import RunConfig
from synret.conllu import parse_conllu
from synret.dataset import FeatureBundle
from synret.gradcheck import grad_check, max_relative_error
from synret.hierarchy import build_hierarchy, index_hierarchy
from synret.params import LayerNormParams, MlpParams, init_params, zeros_like
from synret.pipeline import (
    TextGrad,
    text_backward,
    text_forward,
    video_backward,
    video_forward,
    weights_backward,
)
from synret.reference import caption_weights, pair_forward, score_pair
from synret.rng import SplitMix64
from synret.scoring import score_videos, score_videos_backward
from synret.train import batch_loss, batch_loss_and_grads, selection_margins, symmetric_ce_loss

from conftest import tie_fixture


def fd(fn, arr, h=1e-6):
    """Elementwise central differences of a scalar function of arr."""
    out = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), out.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = fn()
        flat[i] = orig - h
        lm = fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * h)
    return out


class TestBlockGradients:
    def test_mlp_params_and_input(self):
        rng = SplitMix64(81)
        d = 6
        mp = MlpParams(w1=rng.uniform_sym((d, d)), b1=rng.uniform_sym(d),
                       w2=rng.uniform_sym((d, d)), b2=rng.uniform_sym(d))
        x = rng.uniform_sym((3, d))
        r = rng.uniform_sym((3, d))

        def loss():
            y, _ = mlp(x, mp)
            return float((y * r).sum())

        y, cache = mlp(x, mp)
        g = MlpParams(w1=np.zeros_like(mp.w1), b1=np.zeros_like(mp.b1),
                      w2=np.zeros_like(mp.w2), b2=np.zeros_like(mp.b2))
        xbar = mlp_backward(r, cache, mp, g)
        assert np.abs(xbar - fd(loss, x)).max() < 1e-8
        for name in ("w1", "b1", "w2", "b2"):
            assert np.abs(getattr(g, name) - fd(loss, getattr(mp, name))).max() < 1e-8

    def test_layer_norm_params_and_input(self):
        rng = SplitMix64(82)
        ln = LayerNormParams(gain=rng.uniform_sym(6), bias=rng.uniform_sym(6))
        x = rng.uniform_sym((2, 6))
        r = rng.uniform_sym((2, 6))

        def loss():
            y, _ = layer_norm(x, ln)
            return float((y * r).sum())

        _, cache = layer_norm(x, ln)
        g = LayerNormParams(gain=np.zeros(6), bias=np.zeros(6))
        xbar = layer_norm_backward(r, cache, ln, g)
        assert np.abs(xbar - fd(loss, x)).max() < 1e-8
        assert np.abs(g.gain - fd(loss, ln.gain)).max() < 1e-8
        assert np.abs(g.bias - fd(loss, ln.bias)).max() < 1e-8

    def test_transformer_params_and_input(self):
        params = init_params(84, 8, max_frames=5)
        rng = SplitMix64(84)
        x = rng.uniform_sym((4, 8))
        r = rng.uniform_sym((4, 8))

        def loss():
            y, _ = transformer_encode(x, params.temporal, params.pos_emb, 8)
            return float((y * r).sum())

        _, cache = transformer_encode(x, params.temporal, params.pos_emb, 8)
        g = zeros_like(params)
        xbar = transformer_backward(r, cache, params.temporal, g.temporal, g.pos_emb, 8)
        assert np.abs(xbar - fd(loss, x)).max() < 1e-7
        assert np.abs(g.pos_emb - fd(loss, params.pos_emb)).max() < 1e-7
        for name in ("wq", "wk", "wv", "wo", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2"):
            got = getattr(g.temporal, name)
            want = fd(loss, getattr(params.temporal, name))
            assert np.abs(got - want).max() < 1e-7, name


class TestGradCheckHarness:
    def test_quadratic_toy_loss(self):
        # loss = ||W x||^2 has exact gradient 2 (W x) x^T; central differences
        # are exact for quadratics up to roundoff
        params = zeros_like(d=4, max_frames=2)
        rng = SplitMix64(85)
        params.mlp1.w1[...] = rng.uniform_sym((4, 4))
        x = rng.uniform_sym(4)

        def loss():
            y = params.mlp1.w1 @ x
            return float(y @ y)

        grads = zeros_like(params)
        grads.mlp1.w1[...] = 2.0 * np.outer(params.mlp1.w1 @ x, x)
        report = grad_check(loss, grads, params, h=1e-4)
        assert report["mlp1.w1"] < 1e-10
        assert all(v == 0.0 for k, v in report.items() if k != "mlp1.w1")

    def test_constant_loss_reports_exact_zero(self):
        params = zeros_like(d=4, max_frames=2)
        report = grad_check(lambda: 0.0, zeros_like(params), params, h=1e-4)
        assert max_relative_error(report) == 0.0

    def test_zero_weight_quadratic_is_exact_zero(self):
        # at W = 0 both the analytic gradient and the symmetric difference
        # vanish identically
        params = zeros_like(d=4, max_frames=2)
        x = SplitMix64(86).uniform_sym(4)

        def loss():
            y = params.mlp1.w1 @ x
            return float(y @ y)

        report = grad_check(loss, zeros_like(params), params, h=1e-4)
        assert max_relative_error(report) == 0.0


def test_text_backward_through_adjective_attention():
    """Finite differences of a linear read-out of every caption output, node
    weights included, on a caption with two adjectives on one entity: with a
    single adjective the attention softmax is constant and its query carries
    no gradient, so the end-to-end fixtures above leave this path unchecked."""
    d = 8
    rng = SplitMix64(406)
    index = index_hierarchy(build_hierarchy(parse_conllu(_TWO_ADJ_ENTITIES)))
    assert max(len(kids) for kids in index.adj_children) == 2
    b = FeatureBundle(pair_id="pair0", index=index,
                      text=rng.uniform_sym((7, d)), frames=rng.uniform_sym((1, d)),
                      patches=rng.uniform_sym((1, 1, d)))
    params = init_params(407, d, max_frames=1)
    tc, tape = text_forward([b], params)
    tg = TextGrad.zeros(tc)
    # kept apart from tg, which text_backward adds the weights' gradients to
    readout = {k: rng.uniform_sym(getattr(tc, k).shape)
               for k in ("e1", "e2", "e3", "m2", "w2", "w3")}
    for name, coef in readout.items():
        getattr(tg, name)[...] = coef

    def loss():
        out = text_forward([b], params)[0]
        return float(sum((getattr(out, k) * coef).sum() for k, coef in readout.items()))

    grads = zeros_like(params)
    text_backward(tg, tc, tape, params, grads)
    for (name, p), (_, g) in zip(params.named_tensors(), grads.named_tensors()):
        if not name.startswith(("temporal.", "pos_emb")):  # the video side
            assert np.abs(g - fd(loss, p)).max() < 1e-7, name


# ---------------------------------------------------------------------------
# The batched training step against the per-pair reference
# ---------------------------------------------------------------------------


def pair_backward_reference(lbar, tc, wc, pf, bd, frames, bar, g_bar):
    """Backward of lbar * (s1 + s2 + s3) for one (caption, video) cell into
    the caption's node gradients `bar` (e1, e2, e3, m2) and the video's
    g_bar, from the per-pair path's pooled features and selections; `tc` is
    the caption as a stack of one and `frames` the video's raw frames."""
    e1 = tc.e1[0]
    # layer 1: e1 . ev1 with ev1 = alpha @ frames and alpha = softmax(frames @ e1)
    alpha_bar = frames @ (lbar * e1)
    bar.e1 += lbar * pf.ev1 + frames.T @ softmax_vjp(pf.alpha_cls, alpha_bar)
    # layer 2: w2 . (e2 . ev2), where ev2 is the mean of the picked g rows
    bar.e2 += (lbar * wc.w2)[:, None] * pf.ev2
    for i, sel in enumerate(pf.psi2):
        g_bar[sel] += lbar * wc.w2[i] * tc.e2[i] / len(sel)
    sim2_bar = softmax_vjp(wc.w2, lbar * bd.score2)
    # layer 3: w3 . (e3 . ev3); the pooled patch rows are frozen
    if bd.score3.size:
        bar.e3 += (lbar * wc.w3)[:, None] * pf.ev3
        z_bar = softmax_vjp(wc.w3, lbar * bd.score3)
        parents = np.asarray(tc.indexes[0].parent3)
        np.add.at(sim2_bar, parents, z_bar)
        np.add.at(bar.m2, parents, z_bar[:, None] * tc.e3)
        bar.e3 += z_bar[:, None] * tc.m2[parents]
    bar.e1 += sim2_bar @ tc.m2
    bar.m2 += sim2_bar[:, None] * e1


def per_pair_loss_and_grads(bundles, params, cfg):
    """pair_forward + score_pair per cell, the per-pair backward above, and
    each caption's and each video's chain run on its own."""
    tcs, text_tapes = zip(*[text_forward([b], params) for b in bundles])
    wcs = [caption_weights(tc) for tc in tcs]
    vcs, video_tapes = zip(*[video_forward([b], params) for b in bundles])
    pfs = [[pair_forward(tc, vc[0], cfg) for vc in vcs] for tc in tcs]
    bds = [[score_pair(tc, wc, pf) for pf in row]
           for tc, wc, row in zip(tcs, wcs, pfs)]
    scores = np.array([[bd.final for bd in row] for row in bds])
    loss, ds = symmetric_ce_loss(scores, cfg.tau)
    grads = zeros_like(params)
    g_bars = [np.zeros_like(vc[0].g) for vc in vcs]
    for i, (tc, wc, tape) in enumerate(zip(tcs, wcs, text_tapes)):
        tg = TextGrad.zeros(tc)
        for j, g_bar in enumerate(g_bars):
            pair_backward_reference(ds[i, j] / 3.0, tc, wc, pfs[i][j], bds[i][j],
                                    vcs[j][0].frames, tg, g_bar)
        text_backward(tg, tc, tape, params, grads)
    for tape, g_bar in zip(video_tapes, g_bars):
        video_backward(g_bar, tape, params, grads)
    return loss, grads, scores


_TWO_ADJ_ENTITIES = """\
1\tbig\tbig\tADJ\t_\t_\t3\tamod\t_\t_
2\tred\tred\tADJ\t_\t_\t3\tamod\t_\t_
3\tdog\tdog\tNOUN\t_\t_\t4\tnsubj\t_\t_
4\tchases\tchase\tVERB\t_\t_\t0\troot\t_\t_
5\tsmall\tsmall\tADJ\t_\t_\t6\tamod\t_\t_
6\tcat\tcat\tNOUN\t_\t_\t4\tobj\t_\t_
"""


def mixed_batch(golden_dir, d, shapes=((1, 1), (2, 3), (3, 5), (4, 9), (4, 2), (3, 9))):
    """Golden captions (verbless/EXIST, entity-less, several verbs) plus one
    with adjectives on two entities, in turn, each paired with a video of
    the next (frame, patch) count in `shapes`."""
    parses = [(golden_dir / f"{name}.conllu").read_text()
              for name in ("verbless", "punct_only", "two_verbs", "deep_chain", "simple")]
    parses.append(_TWO_ADJ_ENTITIES)
    rng = SplitMix64(404)
    bundles = []
    for k, (n_v, n_p) in enumerate(shapes):
        conllu = parses[k % len(parses)]
        bundles.append(FeatureBundle(
            pair_id=f"pair{k}", index=index_hierarchy(build_hierarchy(parse_conllu(conllu))),
            text=rng.uniform_sym((len(parse_conllu(conllu)) + 1, d)),
            frames=rng.uniform_sym((n_v, d)), patches=rng.uniform_sym((n_v, n_p, d))))
    return bundles


@pytest.mark.parametrize("lambda_frame,lambda_patch,literal", [
    (2, 4, False), (2, 4, True), (1, 1, False), (9, 20, True),
])
def test_batched_step_matches_per_pair_reference(golden_dir, lambda_frame, lambda_patch,
                                                 literal):
    d = 8
    bundles = mixed_batch(golden_dir, d)
    assert any(None in b.index.mu2 for b in bundles)
    assert any(b.index.n_entities == 0 for b in bundles)
    assert sum(bool(kids) for b in bundles for kids in b.index.adj_children) >= 3
    params = init_params(405, d, max_frames=4)
    cfg = RunConfig(d=d, max_frames=4, lambda_frame=lambda_frame, lambda_patch=lambda_patch,
                    literal_patch_norm=literal)
    loss, grads, scores = batch_loss_and_grads(bundles, params, cfg)
    ref_loss, ref_grads, ref_scores = per_pair_loss_and_grads(bundles, params, cfg)
    assert abs(loss - ref_loss) <= 1e-10 and np.abs(scores - ref_scores).max() <= 1e-10
    assert batch_loss(bundles, params, cfg) == loss
    for (name, got), (_, want) in zip(grads.named_tensors(), ref_grads.named_tensors()):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), name
    assert any(np.abs(g).max() > 0 for _, g in grads.named_tensors())


def test_full_pipeline_gradients_on_a_mixed_shape_batch(golden_dir):
    """Videos of unequal N_v and N_p, three of one shape, so the kernel's
    grouping by shape and its per-video row offsets are checked end to end.
    Each parameter tensor is probed by central differences along its
    analytic gradient and along a seeded random direction."""
    d, h = 8, 1e-4
    bundles = mixed_batch(golden_dir, d, shapes=[(3, 5), (2, 3), (3, 5), (4, 2), (1, 1), (3, 5)])
    cfg = RunConfig(d=d, max_frames=4, seed=0)
    params = init_params(410, d, max_frames=4)
    assert selection_margins(bundles, params, cfg) > 5e-3  # no pick flips under a probe
    _, grads, _ = batch_loss_and_grads(bundles, params, cfg)
    rng = SplitMix64(409)
    worst = 0.0
    for (name, p), (_, g) in zip(params.named_tensors(), grads.named_tensors()):
        for v in (g, rng.uniform_sym(g.shape)):
            if not np.any(v):
                continue
            v = v / np.linalg.norm(v)
            base = p.copy()
            p += h * v
            lp = batch_loss(bundles, params, cfg)
            p[...] = base - h * v
            lm = batch_loss(bundles, params, cfg)
            p[...] = base
            numeric = (lp - lm) / (2 * h)
            worst = max(worst, abs(float((g * v).sum()) - numeric)
                        / max(float(np.linalg.norm(g)), abs(numeric)))
    assert worst < 1e-4


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("lambda_patch", [1, 2, 3])
@pytest.mark.parametrize("lambda_frame", [1, 2, 3])
def test_training_selections_equal_score_video_on_exact_ties(lambda_frame, lambda_patch,
                                                              literal):
    # frames 0 and 2 tie while holding different patches, and patch rows tie
    # inside frames: a tie broken the other way moves the g gradient to
    # another frame or changes the pooled patch rows e3 is pulled towards
    vid, stack = tie_fixture()
    cfg = RunConfig(d=4, max_frames=3, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    cols = score_videos(stack, [vid], cfg)
    col = cols[0]
    s_bar = np.array([1.0, -0.5])
    tg = TextGrad.zeros(stack)
    g_bar = score_videos_backward(s_bar[:, None], stack, [vid], cols, cfg, tg)
    weights_backward(tg, stack)

    ref_g_bar = np.zeros_like(vid.g)
    rows2 = rows3 = 0
    for i in range(len(stack.indexes)):
        one = stack.single(i)
        cw = caption_weights(one)
        pf = pair_forward(one, vid, cfg)
        n2, n3 = one.e2.shape[0], one.e3.shape[0]
        assert [sel.tolist() for sel in pf.psi2] == col.frames[rows2:rows2 + n2].tolist()
        bar = SimpleNamespace(e1=np.zeros(4), e2=np.zeros((n2, 4)), e3=np.zeros((n3, 4)),
                              m2=np.zeros((n2, 4)))
        pair_backward_reference(s_bar[i] / 3.0, one, cw, pf, score_pair(one, cw, pf),
                                vid.frames, bar, ref_g_bar)
        assert np.abs(tg.e1[i] - bar.e1).max() <= 1e-12
        for name, rows, n in (("e2", rows2, n2), ("m2", rows2, n2), ("e3", rows3, n3)):
            assert np.abs(getattr(tg, name)[rows:rows + n] - getattr(bar, name)).max(initial=0) <= 1e-12
        rows2, rows3 = rows2 + n2, rows3 + n3
    assert np.abs(g_bar - ref_g_bar).max() <= 1e-12
