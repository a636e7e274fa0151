"""Similarity assembly, learned weights, score matrices, and DSL."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from synret.blocks import softmax
from synret.config import RunConfig
from synret.conllu import parse_conllu
from synret.dataset import FeatureBundle
from synret.errors import DataError
from synret.hierarchy import build_hierarchy, index_hierarchy
from synret.params import init_params
from synret.pipeline import ENCODE_CHUNK, text_forward, video_forward
from synret.reference import (
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
    WeightCache,
    dsl_postprocess,
    fuse_pair,
    score_matrix,
    score_video,
    text_weights,
)

from conftest import GOLDEN_NAMES, encode_pair, reference_score, tie_fixture


def stub(e1, e2, e3, ev1, ev2, ev3):
    tc = SimpleNamespace(e1=e1, e2=e2, e3=e3)
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
        cap, wc, vid = encode_pair(bundles[0], bundles[1], params)
        bd = score_pair(cap, wc, pair_forward(cap, vid, cfg))
        s1, s2, s3 = bd.layer_scores
        assert bd.final == (s1 + s2 + s3) / 3.0

    def test_matches_composed_oracle(self, small_setup):
        bundles, params, cfg = small_setup
        cap, wc, vid = encode_pair(bundles[2], bundles[3], params)
        pf = pair_forward(cap, vid, cfg)
        bd = score_pair(cap, wc, pf)
        s1 = float(cap.e1 @ pf.ev1)
        s2 = sum(float(wc.w2[i]) * float(cap.e2[i] @ pf.ev2[i]) for i in range(cap.e2.shape[0]))
        s3 = sum(float(wc.w3[i]) * float(cap.e3[i] @ pf.ev3[i]) for i in range(cap.e3.shape[0]))
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
    h = build_hierarchy(parse_conllu(conllu))
    return FeatureBundle(pair_id=pair_id, hierarchy=h, index=index_hierarchy(h),
                         text=text, frames=frames, patches=patches)


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
    assert any(c.hierarchy.exist_node_used for c in captions)
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
    for i, (cap, wc) in enumerate(encoded):
        for j, vid in enumerate(vids):
            want = score_pair(cap, wc, pair_forward(cap, vid, cfg)).final
            assert abs(s[i, j] - want) <= 1e-10, (i, j)


@pytest.mark.parametrize("lambda_frame,lambda_patch,literal", [(2, 4, False), (9, 3, True)])
def test_score_matrix_spans_encode_chunks(golden_dir, lambda_frame, lambda_patch, literal):
    """More videos than two encode chunks."""
    d = 8
    n_videos = 2 * ENCODE_CHUNK + 5
    captions, videos = _cross_gallery(golden_dir, SplitMix64(131), d, False, n_videos)
    assert any(c.index.n_entities == 0 for c in captions)
    assert any(c.hierarchy.exist_node_used for c in captions)
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
    assert any(c.hierarchy.exist_node_used for c in captions[2 * ENCODE_CHUNK:])
    params = init_params(138, d, max_frames=4)
    cfg = RunConfig(d=d, max_frames=4, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    _assert_cells_match_separate_encoding(captions, videos, params, cfg)


def test_text_weights_match_per_caption_weights(golden_dir):
    """The stacked segment softmax against each caption's own weights."""
    d = 8
    captions, _ = _cross_gallery(golden_dir, SplitMix64(141), d, False, 0,
                                 2 * len(GOLDEN_NAMES))
    assert any(c.index.n_entities == 0 for c in captions)
    assert any(c.hierarchy.exist_node_used for c in captions)
    tc = text_forward(captions, init_params(142, d, max_frames=4))[0]
    wc = text_weights(tc)
    for i in range(len(captions)):
        want = caption_weights(tc.caption(i))
        s2 = slice(tc.first2[i], tc.first2[i + 1])
        s3 = slice(tc.first3[i], tc.first3[i + 1])
        for got, ref in [(wc.sim2[s2], want.sim2), (wc.w2[s2], want.w2),
                         (wc.sim3[s3], want.sim3), (wc.w3[s3], want.w3)]:
            assert got.shape == ref.shape and np.abs(got - ref).max(initial=0.0) <= 1e-12, i


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("lambda_patch", [1, 2, 3])
@pytest.mark.parametrize("lambda_frame", [1, 2, 3])
def test_score_video_breaks_exact_ties_to_lower_index(lambda_frame, lambda_patch, literal):
    vid, caps, stack = tie_fixture()
    cfg = RunConfig(d=4, max_frames=3, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    got = score_video(stack, text_weights(stack), vid, cfg).scores
    for i, cap in enumerate(caps):
        want = score_pair(cap, caption_weights(cap), pair_forward(cap, vid, cfg)).final
        assert abs(got[i] - want) <= 1e-10


def _one_caption_stack(cap):
    """A tie_fixture caption as a stack of one, the form fuse_pair takes."""
    return SimpleNamespace(e1=cap.e1[None], e2=cap.e2, m2=cap.m2, e3=cap.e3,
                           owner2=np.zeros(len(cap.e2), dtype=np.intp),
                           owner3=np.zeros(len(cap.e3), dtype=np.intp),
                           parent3=np.asarray(cap.index.parent3, dtype=np.intp))


def _lower_index_top_k(scores, k):
    return sorted(sorted(range(len(scores)), key=lambda j: (-scores[j], j))[:k])


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("lambda_patch", [1, 2, 3])
@pytest.mark.parametrize("lambda_frame", [1, 2, 3])
def test_fuse_pair_breaks_exact_ties_as_score_video(lambda_frame, lambda_patch, literal):
    """Exact integer ties: fuse selects the lower index, as score_video does."""
    vid, caps, stack = tie_fixture()
    cfg = RunConfig(d=4, max_frames=3, lambda_frame=lambda_frame,
                    lambda_patch=lambda_patch, literal_patch_norm=literal)
    col = score_video(stack, text_weights(stack), vid, cfg)
    for i, cap in enumerate(caps):
        fp = fuse_pair(_one_caption_stack(cap), vid, cfg)
        rows2 = np.flatnonzero(stack.owner2 == i)
        assert fp.frames.tolist() == [col.frames[r].tolist() for r in rows2] == \
            [_lower_index_top_k(cap.e2[a] @ vid.g.T, lambda_frame) for a in range(len(rows2))]
        rows3 = np.flatnonzero(stack.owner3 == i)
        for e, r in enumerate(rows3):
            picked = col.frames[stack.parent3[r]]
            kernel = col.patches[r].tolist()
            oracle = [_lower_index_top_k(vid.patches[j] @ cap.e3[e], lambda_patch)
                      for j in picked]
            assert fp.patches[e].tolist() == kernel == oracle
        pf = pair_forward(cap, vid, cfg)
        for got, want in [(fp.ev1, pf.ev1), (fp.ev2, pf.ev2), (fp.ev3, pf.ev3)]:
            assert np.array_equal(got, want)


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
