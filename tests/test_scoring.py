"""Similarity assembly, learned weights, score matrices, and DSL."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from synret.blocks import softmax
from synret.config import RunConfig
from synret.conllu import parse_conllu
from synret.dataset import FeatureBundle
from synret.errors import DataError
from synret.hierarchy import build_hierarchy, index_hierarchy
from synret.params import init_params
from synret.pipeline import TextCache, TextGrad, text_forward, video_forward
from synret.reference import (
    WeightCache,
    caption_weights,
    final_score,
    layer2_weights,
    layer3_weights,
    node_scores,
    pair_forward,
    score_pair,
)
from synret.rng import SplitMix64
from synret.scoring import (
    ENCODE_CHUNK,
    dsl_postprocess,
    fuse_pair,
    score_matrix,
    score_videos,
    score_videos_backward,
    top,
)

from conftest import GOLDEN_NAMES, encode_pair, reference_score, tie_fixture
from test_fuzz import FUZZ
from test_gradients import mixed_batch


def stub(e1, e2, e3, ev1, ev2, ev3):
    tc = SimpleNamespace(e1=e1[None], e2=e2, e3=e3)  # the fields of a one-caption stack
    pf = SimpleNamespace(ev1=ev1, ev2=ev2, ev3=ev3)
    return tc, pf


class TestNodeScores:
    def test_identical_unit_vectors(self):
        v = np.zeros(4)
        v[0] = 1.0
        tc, pf = stub(v, v[None, :], v[None, :], v, v[None, :], v[None, :])
        s1, s2, s3 = node_scores(tc, pf)
        assert s1 == 1.0 and s2[0] == 1.0 and s3[0] == 1.0

    def test_orthogonal_vectors(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        tc, pf = stub(a, a[None, :], a[None, :], b, b[None, :], b[None, :])
        s1, s2, s3 = node_scores(tc, pf)
        assert s1 == 0.0 and s2[0] == 0.0 and s3[0] == 0.0

    def test_matches_dot_oracle(self):
        rng = SplitMix64(61)
        e1, e2, e3 = rng.uniform_sym(6), rng.uniform_sym((2, 6)), rng.uniform_sym((3, 6))
        ev1, ev2, ev3 = rng.uniform_sym(6), rng.uniform_sym((2, 6)), rng.uniform_sym((3, 6))
        tc, pf = stub(e1, e2, e3, ev1, ev2, ev3)
        s1, s2, s3 = node_scores(tc, pf)
        assert abs(s1 - sum(e1[c] * ev1[c] for c in range(6))) < 1e-12
        for i in range(2):
            assert abs(s2[i] - sum(e2[i, c] * ev2[i, c] for c in range(6))) < 1e-12
        for i in range(3):
            assert abs(s3[i] - sum(e3[i, c] * ev3[i, c] for c in range(6))) < 1e-12


class TestLayerWeights:
    def test_single_action_weight_one(self):
        rng = SplitMix64(62)
        sim2, w2 = layer2_weights(rng.uniform_sym(4), rng.uniform_sym((1, 4)))
        assert np.array_equal(w2, [1.0])

    def test_equal_similarities_split(self):
        e1 = np.array([1.0, 0.0])
        m2 = np.array([[0.3, 5.0], [0.3, -2.0]])  # same inner product with e1
        _, w2 = layer2_weights(e1, m2)
        assert np.allclose(w2, [0.5, 0.5], atol=1e-15)

    def test_weights_sum_to_one(self):
        rng = SplitMix64(63)
        for _ in range(10):
            _, w2 = layer2_weights(rng.uniform_sym(6), rng.uniform_sym((4, 6)))
            assert abs(w2.sum() - 1.0) < 1e-12

    def test_single_entity_weight_one(self):
        rng = SplitMix64(64)
        _, w3 = layer3_weights(rng.uniform_sym((2, 4)), rng.uniform_sym((1, 4)),
                               [1], rng.uniform_sym(2))
        assert np.array_equal(w3, [1.0])

    def test_entity_softmax_oracle(self):
        rng = SplitMix64(65)
        m2 = rng.uniform_sym((2, 5))
        e3 = rng.uniform_sym((3, 5))
        parent3 = [0, 1, 0]
        sim2 = rng.uniform_sym(2)
        sim3, w3 = layer3_weights(m2, e3, parent3, sim2)
        logits = [float(sim2[parent3[i]] + m2[parent3[i]] @ e3[i]) for i in range(3)]
        exps = [math.exp(v - max(logits)) for v in logits]
        want = np.array([e / sum(exps) for e in exps])
        assert np.abs(w3 - want).max() < 1e-12
        assert abs(w3.sum() - 1.0) < 1e-12

    def test_published_trained_weights_are_normalized(self):
        # reported action pair and entity triple from a trained model; the
        # checkable property is that each set sums to 1 like ours do
        assert abs((0.4970 + 0.5030) - 1.0) < 1e-9
        assert abs((0.2970 + 0.3543 + 0.3487) - 1.0) < 1e-9

    def test_monotonicity_of_action_weights(self):
        sim = np.array([0.2, -0.4, 0.9])
        bumped = sim.copy()
        bumped[1] += 0.3
        w, w_b = softmax(sim), softmax(bumped)
        assert w_b[1] > w[1]
        assert w_b[0] < w[0] and w_b[2] < w[2]

    def test_shift_invariance(self):
        rng = SplitMix64(66)
        sim = rng.uniform_sym(5)
        assert np.abs(softmax(sim + 17.3) - softmax(sim)).max() < 1e-12


class TestFinalScore:
    def test_equal_node_scores_collapse_to_constant(self):
        c = 0.8125  # exactly representable so equality is bitwise
        wc = WeightCache(sim2=np.zeros(2), w2=np.array([0.25, 0.75]),
                         sim3=np.zeros(2), w3=np.array([0.5, 0.5]))
        bd = final_score(c, np.array([c, c]), np.array([c, c]), wc)
        assert bd.final == c

    def test_empty_entity_layer_divisor_stays_three(self):
        c = 0.5
        wc = WeightCache(sim2=np.zeros(1), w2=np.array([1.0]),
                         sim3=np.zeros(0), w3=np.zeros(0))
        bd = final_score(c, np.array([c]), np.zeros(0), wc)
        assert bd.final == (c + c) / 3.0
        assert bd.layer_scores[2] == 0.0

    def test_final_is_exact_mean_of_layer_scores(self, small_setup):
        bundles, params, cfg = small_setup
        tc, wc, vid = encode_pair(bundles[0], bundles[1], params)
        bd = score_pair(tc, wc, pair_forward(tc, vid, cfg))
        s1, s2, s3 = bd.layer_scores
        assert bd.final == (s1 + s2 + s3) / 3.0

    def test_matches_composed_oracle(self, small_setup):
        bundles, params, cfg = small_setup
        tc, wc, vid = encode_pair(bundles[2], bundles[3], params)
        pf = pair_forward(tc, vid, cfg)
        bd = score_pair(tc, wc, pf)
        s1 = float(tc.e1[0] @ pf.ev1)
        s2 = sum(float(wc.w2[i]) * float(tc.e2[i] @ pf.ev2[i]) for i in range(tc.e2.shape[0]))
        s3 = sum(float(wc.w3[i]) * float(tc.e3[i] @ pf.ev3[i]) for i in range(tc.e3.shape[0]))
        assert abs(bd.final - (s1 + s2 + s3) / 3.0) < 1e-12


class TestScoreMatrix:
    def test_1x1(self, small_setup):
        bundles, params, cfg = small_setup
        s = score_matrix(bundles[:1], bundles[:1], params, cfg)
        want = reference_score(bundles[0], bundles[0], params, cfg)
        assert s.shape == (1, 1) and abs(s[0, 0] - want) <= 1e-10

    def test_cells_equal_standalone_evaluation(self, small_setup):
        bundles, params, cfg = small_setup
        s = score_matrix(bundles[:2], bundles[:2], params, cfg)
        for i in range(2):
            for j in range(2):
                assert abs(s[i, j] - reference_score(bundles[i], bundles[j], params, cfg)) <= 1e-10

    def test_not_symmetric(self, small_setup):
        bundles, params, cfg = small_setup
        s = score_matrix(bundles, bundles, params, cfg)
        assert not np.allclose(s, s.T)


def _bundle(pair_id, conllu, text, frames, patches):
    index = index_hierarchy(build_hierarchy(parse_conllu(conllu)))
    return FeatureBundle(pair_id=pair_id, index=index, text=text, frames=frames, patches=patches)


_VIDEO_SHAPES = [(1, 1), (2, 3), (3, 5), (4, 9), (4, 2), (3, 9), (2, 1)]


def _cross_gallery(golden_dir, rng, d, ties, n_videos=len(_VIDEO_SHAPES),
                   n_captions=len(GOLDEN_NAMES)):
    """The golden captions (cycled) against videos of mixed frame and patch
    counts (cycling through seven shapes). With ties, each video repeats its
    first frame (with its patches) as its last and its first patch row as its
    last."""
    captions = []
    for k in range(n_captions):
        name = GOLDEN_NAMES[k % len(GOLDEN_NAMES)]
        conllu = (golden_dir / f"{name}.conllu").read_text()
        n_tokens = len(parse_conllu(conllu))
        captions.append(_bundle(name, conllu, rng.uniform_sym((n_tokens + 1, d)),
                                rng.uniform_sym((1, d)), rng.uniform_sym((1, 1, d))))
    videos = []
    for k in range(n_videos):
        n_v, n_p = _VIDEO_SHAPES[k % len(_VIDEO_SHAPES)]
        frames, patches = rng.uniform_sym((n_v, d)), rng.uniform_sym((n_v, n_p, d))
        if ties:
            frames[-1], patches[-1] = frames[0], patches[0]
            patches[:, -1] = patches[:, 0]
        videos.append(_bundle(f"video{k}", "1\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_\n",
                              rng.uniform_sym((2, d)), frames, patches))
    return captions, videos


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("lambda_frame,lambda_patch,literal", [
    (2, 4, False), (2, 4, True), (1, 1, False), (4, 9, True), (9, 20, False),
])
def test_score_matrix_cells_match_per_pair_path(golden_dir, ties, lambda_frame,
                                                lambda_patch, literal):
    d = 8
    captions, videos = _cross_gallery(golden_dir, SplitMix64(91 + lambda_patch), d, ties)
    assert any(c.index.n_entities == 0 for c in captions)
    assert any(None in c.index.mu2 for c in captions)
    params = init_params(92, d, max_frames=4)
    if ties:  # without positions, repeated frames also tie after the temporal encoder
        params.pos_emb[...] = 0.0
    cfg = RunConfig(d=d, max_frames=4, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    s = score_matrix(captions, videos, params, cfg)
    assert s.shape == (len(captions), len(videos))
    for i, bt in enumerate(captions):
        for j, bv in enumerate(videos):
            assert abs(s[i, j] - reference_score(bt, bv, params, cfg)) <= 1e-10, (i, j)


def _assert_cells_match_separate_encoding(captions, videos, params, cfg):
    """Every cell of score_matrix against the per-pair path with every caption
    and video encoded on its own."""
    s = score_matrix(captions, videos, params, cfg)
    assert s.shape == (len(captions), len(videos))
    encoded = [encode_pair(bt, bt, params)[:2] for bt in captions]
    vids = [video_forward([bv], params)[0][0] for bv in videos]
    for i, (tc, wc) in enumerate(encoded):
        for j, vid in enumerate(vids):
            want = score_pair(tc, wc, pair_forward(tc, vid, cfg)).final
            assert abs(s[i, j] - want) <= 1e-10, (i, j)


@pytest.mark.parametrize("lambda_frame,lambda_patch,literal", [(2, 4, False), (9, 3, True)])
def test_score_matrix_spans_encode_chunks(golden_dir, lambda_frame, lambda_patch, literal):
    """More videos than two encode chunks."""
    d = 8
    n_videos = 2 * ENCODE_CHUNK + 5
    captions, videos = _cross_gallery(golden_dir, SplitMix64(131), d, False, n_videos)
    assert any(c.index.n_entities == 0 for c in captions)
    assert any(None in c.index.mu2 for c in captions)
    params = init_params(132, d, max_frames=4)
    cfg = RunConfig(d=d, max_frames=4, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    _assert_cells_match_separate_encoding(captions, videos, params, cfg)


@pytest.mark.parametrize("lambda_frame,lambda_patch,literal", [(2, 4, False), (9, 3, True)])
def test_score_matrix_spans_caption_chunks(golden_dir, lambda_frame, lambda_patch, literal):
    """More captions than two encode chunks."""
    d = 8
    n_captions = 2 * ENCODE_CHUNK + 5
    captions, videos = _cross_gallery(golden_dir, SplitMix64(137), d, False, 4, n_captions)
    assert any(c.index.n_entities == 0 for c in captions[2 * ENCODE_CHUNK:])
    assert any(None in c.index.mu2 for c in captions[2 * ENCODE_CHUNK:])
    params = init_params(138, d, max_frames=4)
    cfg = RunConfig(d=d, max_frames=4, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    _assert_cells_match_separate_encoding(captions, videos, params, cfg)


def test_text_weights_match_per_caption_weights(golden_dir):
    """The stacked segment softmax against each caption's own weights. A
    stack's weights are recomputed, not copied, by `concat` and `single`, so
    they must be bit-identical to the rows of the stacks they came from, as
    `score_matrix` and the `fuse` command rely on."""
    d = 8
    captions, _ = _cross_gallery(golden_dir, SplitMix64(141), d, False, 0,
                                 2 * len(GOLDEN_NAMES))
    assert any(c.index.n_entities == 0 for c in captions)
    assert any(None in c.index.mu2 for c in captions)
    params = init_params(142, d, max_frames=4)
    tc = text_forward(captions, params)[0]
    names = ("w2", "w3")
    chunks = [text_forward(captions[lo:lo + 3], params)[0] for lo in range(0, len(captions), 3)]
    joined = TextCache.concat(chunks)
    for name in names:
        assert np.array_equal(getattr(joined, name),
                              np.concatenate([getattr(c, name) for c in chunks])), name
    for i in range(len(captions)):
        want = caption_weights(tc.single(i))
        s2 = slice(tc.first2[i], tc.first2[i + 1])
        s3 = slice(tc.first3[i], tc.first3[i + 1])
        for got, ref in [(tc.w2[s2], want.w2), (tc.w3[s3], want.w3)]:
            assert got.shape == ref.shape and np.abs(got - ref).max(initial=0.0) <= 1e-12, i
        one = tc.single(i)
        for name, rows in zip(names, (s2, s3)):
            assert np.array_equal(getattr(one, name), getattr(tc, name)[rows]), (i, name)


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("lambda_patch", [1, 2, 3])
@pytest.mark.parametrize("lambda_frame", [1, 2, 3])
def test_score_video_breaks_exact_ties_to_lower_index(lambda_frame, lambda_patch, literal):
    vid, stack = tie_fixture()
    cfg = RunConfig(d=4, max_frames=3, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    got = score_videos(stack, [vid], cfg).scores[:, 0]
    for i in range(len(stack.indexes)):
        one = stack.single(i)
        want = score_pair(one, caption_weights(one), pair_forward(one, vid, cfg)).final
        assert abs(got[i] - want) <= 1e-10


def _lower_index_top_k(scores, k):
    return sorted(sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:k])


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("lambda_patch", [1, 2, 3])
@pytest.mark.parametrize("lambda_frame", [1, 2, 3])
def test_fuse_pair_breaks_exact_ties_as_score_video(lambda_frame, lambda_patch, literal):
    """Exact integer ties: fuse selects the lower index, as score_videos does."""
    vid, stack = tie_fixture()
    cfg = RunConfig(d=4, max_frames=3, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    col = score_videos(stack, [vid], cfg)[0]
    for i in range(len(stack.indexes)):
        one = stack.single(i)
        fp = fuse_pair(one, vid, cfg)
        rows2 = np.flatnonzero(stack.owner2 == i)
        assert fp.frames.tolist() == [col.frames[r].tolist() for r in rows2] == \
            [_lower_index_top_k(one.e2[a] @ vid.g.T, lambda_frame) for a in range(len(rows2))]
        rows3 = np.flatnonzero(stack.owner3 == i)
        for e, r in enumerate(rows3):
            picked = col.frames[stack.parent3[r]]
            kernel = col.patches[r].tolist()
            oracle = [_lower_index_top_k(vid.patches[j] @ one.e3[e], lambda_patch)
                      for j in picked]
            assert fp.patches[e].tolist() == kernel == oracle
        pf = pair_forward(one, vid, cfg)
        for got, want in [(fp.ev1, pf.ev1), (fp.ev2, pf.ev2), (fp.ev3, pf.ev3)]:
            assert np.array_equal(got, want)


def _assert_top_is_the_sorted_prefix(scores, k):
    """`top` against a Python sort by (-score, index), row by row."""
    order, ranked = top(scores, k)
    n = scores.shape[-1]
    assert order.shape == ranked.shape == scores.shape[:-1] + (min(k, n),)
    rows = scores.reshape(-1, n)
    flat = (len(rows), min(k, n))
    for row, got, vals in zip(rows, order.reshape(flat), ranked.reshape(flat)):
        want = sorted(range(n), key=lambda i: (-row[i], i))[:k]
        assert got.tolist() == want and np.array_equal(vals, row[want])


def test_top_equals_the_sort_oracle():
    """Criterion 02's 10,000 SplitMix64 trials with planted ties, checking
    `top`'s ranked prefix and scores, not only the picked set. Every fourth
    trial is a stacked (m, 2, n) array, every fifth is all equal, and every
    seventh asks for k >= n."""
    rng = SplitMix64(2024)
    for trial in range(10_000):
        n = 1 + rng.randint(64)
        k = n + rng.randint(3) if trial % 7 == 0 else 1 + rng.randint(8)
        scores = rng.uniform_sym((rng.randint(4), 2, n) if trial % 4 == 0 else n)
        if trial % 3 == 0 and n >= 2:
            scores[..., rng.randint(n)] = scores[..., rng.randint(n)]  # planted tie
        if trial % 5 == 0:
            scores[...] = 0.25
        _assert_top_is_the_sorted_prefix(scores, k)


def test_top_on_the_tie_fixture():
    vid, stack = tie_fixture()
    frame_scores = stack.e2 @ vid.g.T
    patch_scores = np.stack([stack.e3 @ p.T for p in vid.patches], axis=1)  # (M, N_v, N_p)
    for k in range(1, 5):
        _assert_top_is_the_sorted_prefix(frame_scores, k)
        _assert_top_is_the_sorted_prefix(patch_scores, k)


@FUZZ
@given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=8),
                elements=st.integers(-2, 2).map(float)),
       k=st.integers(1, 10))
def test_top_is_a_stable_argsort_prefix_under_heavy_ties(x, k):
    order, ranked = top(x, k)
    want = np.argsort(-x, axis=-1, kind="stable")[..., :k]
    assert np.array_equal(order, want)
    assert np.array_equal(ranked, np.take_along_axis(x, want, axis=-1))


class TestDsl:
    def test_singleton_scaled_by_one(self):
        s = np.array([[0.7]])
        assert np.array_equal(dsl_postprocess(s, 100.0), s)

    def test_uniform_matrix_scales_by_count(self):
        s = np.full((4, 4), 0.3)
        out = dsl_postprocess(s, 100.0, "t2v")
        assert np.allclose(out, s / 4.0, atol=1e-15)

    @pytest.mark.parametrize("direction,axis", [("t2v", 0), ("v2t", 1)])
    def test_matches_formula_oracle(self, direction, axis):
        rng = SplitMix64(67)
        s = rng.uniform_sym((5, 5))
        out = dsl_postprocess(s, 100.0, direction)
        z = 100.0 * s
        e = np.exp(z - z.max(axis=axis, keepdims=True))
        prior = e / e.sum(axis=axis, keepdims=True)
        assert np.abs(out - s * prior).max() < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            dsl_postprocess(np.zeros((0, 0)), 100.0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(DataError):
            dsl_postprocess(np.ones((2, 2)), 100.0, "sideways")


@pytest.mark.parametrize("lambda_frame,lambda_patch,literal", [(2, 4, False), (3, 6, True)])
def test_batch_columns_equal_one_video_calls_bit_for_bit(golden_dir, lambda_frame,
                                                        lambda_patch, literal):
    """A d=32 batch that mixes (N_v, N_p), with an odd number of stacked
    actions: each column of one `score_videos` call, and its backward,
    equal one-video calls exactly. Stacking the videos' rows into one
    layer-1 or layer-2 GEMM would round differently at such shapes."""
    d = 32
    bundles = mixed_batch(golden_dir, d, shapes=[(4, 9), (3, 5), (4, 9), (1, 1), (4, 9),
                                                 (3, 5), (4, 9), (2, 3), (4, 9)])
    for b in bundles:
        b.patches = b.patches.astype(np.float32)  # as `hold_patches` holds them
    params = init_params(408, d, max_frames=4)
    cfg = RunConfig(d=d, max_frames=4, lambda_frame=lambda_frame, lambda_patch=lambda_patch,
                    literal_patch_norm=literal)
    tc = text_forward(bundles, params)[0]
    videos = video_forward(bundles, params)[0]
    assert tc.e2.shape[0] % 2 == 1
    cols = score_videos(tc, videos, cfg)
    s_bar = SplitMix64(409).uniform_sym(cols.scores.shape)
    tg = TextGrad.zeros(tc)
    g_bar = score_videos_backward(s_bar, tc, videos, cols, cfg, tg)

    want_tg, want_g_bar = TextGrad.zeros(tc), []
    for b, (vid, col) in enumerate(zip(videos, cols)):
        one = score_videos(tc, [vid], cfg)
        for name in ("scores", "logits", "frames", "score2", "patches", "score3"):
            got, want = getattr(col, name), getattr(one[0], name)
            assert got.shape == want.shape and np.array_equal(got, want), (b, name)
        assert col.margin == one[0].margin, b
        want_g_bar.append(score_videos_backward(s_bar[:, b:b + 1], tc, [vid], one, cfg, want_tg))
    for name in ("e1", "e2", "e3", "m2", "w2", "w3"):
        assert np.array_equal(getattr(tg, name), getattr(want_tg, name)), name
    assert np.array_equal(g_bar, np.concatenate(want_g_bar))
