"""Differential tests: the production kernel against the per-pair oracle in
`synret.reference`, on random caption trees and random videos.

Every `score_matrix` cell must agree with `pair_forward` + `score_pair` within
1e-10, and every `fuse_pair` tensor with `pair_forward`'s, with equal frame
and patch selections; a training step must pick the same frames and
patches. Every batched gradient must agree with the per-pair backward in
test_gradients.py within 1e-10 relative, `selection_margins` must agree
with the brute-force margin in conftest.py within 1e-10, and every random
tree must build a valid hierarchy. Gaussian features make exact ties a
null event here; exact ties are pinned by
`test_fuse_pair_breaks_exact_ties_as_score_video` and
`test_score_video_breaks_exact_ties_to_lower_index` in test_scoring.py.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from synret.config import RunConfig
from synret.conllu import NOUN_TAGS, VERB_TAG, parse_conllu
from synret.dataset import FeatureBundle
from synret.hierarchy import build_hierarchy, index_hierarchy, validate_hierarchy
from synret.params import init_params
from synret.pipeline import text_forward, video_forward
from synret.reference import caption_weights, pair_forward, score_pair
from synret.scoring import fuse_pair, score_matrix
from synret.train import _batch_forward, batch_loss_and_grads, selection_margins

from conftest import per_pair_selection_margin
from test_fuzz import FUZZ
from test_gradients import per_pair_loss_and_grads

D = 8
MAX_FRAMES = 5
MAX_PATCHES = 6
UPOS = ["VERB", "AUX", "NOUN", "PROPN", "PRON", "ADJ", "DET", "PUNCT"]


@st.composite
def conllu_trees(draw):
    """A valid dependency tree: tokens attach, in a random order, to a token
    already in the tree, the first one to the root."""
    n = draw(st.integers(1, 7))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))]
    upos = draw(st.lists(st.sampled_from(UPOS), min_size=n, max_size=n))
    return "".join(f"{i}\tw{i}\tw{i}\t{upos[i - 1]}\t_\t_\t{heads[i]}\t"
                   f"{'root' if heads[i] == 0 else 'dep'}\t_\t_\n" for i in range(1, n + 1))


@st.composite
def galleries(draw):
    """Pairs with random captions and videos of random frame and patch counts,
    a model, and budgets drawn at, below and beyond the counts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bundles = []
    for k in range(draw(st.integers(1, 3))):
        conllu = draw(conllu_trees())
        n_tokens = len(parse_conllu(conllu))
        n_v, n_p = draw(st.integers(1, MAX_FRAMES)), draw(st.integers(1, MAX_PATCHES))
        bundles.append(FeatureBundle(
            pair_id=f"pair{k}", index=index_hierarchy(build_hierarchy(parse_conllu(conllu))),
            text=rng.standard_normal((n_tokens + 1, D)), frames=rng.standard_normal((n_v, D)),
            patches=rng.standard_normal((n_v, n_p, D)).astype(np.float32)))
    params = init_params(draw(st.integers(0, 1000)), D, max_frames=MAX_FRAMES)
    cfg = RunConfig(d=D, max_frames=MAX_FRAMES,
                    lambda_frame=draw(st.integers(1, MAX_FRAMES + 2)),
                    lambda_patch=draw(st.integers(1, MAX_PATCHES + 2)),
                    literal_patch_norm=draw(st.booleans()))
    return bundles, params, cfg


@FUZZ
@given(gallery=galleries())
def test_kernel_and_fuse_match_the_per_pair_oracle(gallery):
    bundles, params, cfg = gallery
    s = score_matrix(bundles, bundles, params, cfg)
    tc = text_forward(bundles, params)[0]  # one chunk, as score_matrix and fuse encode it
    videos = video_forward(bundles, params)[0]
    for i in range(len(bundles)):
        one = tc.single(i)
        wc = caption_weights(one)
        for j, vid in enumerate(videos):
            pf = pair_forward(one, vid, cfg)
            assert abs(s[i, j] - score_pair(one, wc, pf).final) <= 1e-10, (i, j)
            fp = fuse_pair(one, vid, cfg)
            assert fp.frames.tolist() == [sel.tolist() for sel in pf.psi2]
            assert fp.patches.tolist() == [[sel.tolist() for sel in per] for per in pf.psi3]
            for got, want in [(fp.ev1, pf.ev1), (fp.ev2, pf.ev2), (fp.ev3, pf.ev3)]:
                assert got.shape == want.shape and np.abs(got - want).max(initial=0.0) <= 1e-10


@FUZZ
@given(gallery=galleries())
def test_training_selects_as_fuse_and_the_per_pair_oracle(gallery):
    """Each caption's rows of a training step's columns hold the frames and
    patches that `fuse_pair` and `pair_forward` pick for that caption."""
    bundles, params, cfg = gallery
    tc, _, videos, _, cols = _batch_forward(bundles, params, cfg)
    for vid, col in zip(videos, cols):
        for i in range(len(bundles)):
            frames = col.frames[tc.first2[i]:tc.first2[i + 1]].tolist()
            patches = col.patches[tc.first3[i]:tc.first3[i + 1]].tolist()
            one = tc.single(i)
            fp, pf = fuse_pair(one, vid, cfg), pair_forward(one, vid, cfg)
            assert frames == fp.frames.tolist() == [sel.tolist() for sel in pf.psi2], i
            assert patches == fp.patches.tolist() == \
                [[sel.tolist() for sel in per] for per in pf.psi3], i


@FUZZ
@given(gallery=galleries())
def test_batched_gradients_match_the_per_pair_reference(gallery):
    bundles, params, cfg = gallery
    loss, grads, scores = batch_loss_and_grads(bundles, params, cfg)
    ref_loss, ref_grads, ref_scores = per_pair_loss_and_grads(bundles, params, cfg)
    assert abs(loss - ref_loss) <= 1e-10 and np.abs(scores - ref_scores).max() <= 1e-10
    for (name, got), (_, want) in zip(grads.named_tensors(), ref_grads.named_tensors()):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), name


@FUZZ
@given(gallery=galleries())
def test_selection_margins_match_the_per_pair_reference(gallery):
    bundles, params, cfg = gallery
    got = selection_margins(bundles, params, cfg)
    want = per_pair_selection_margin(bundles, params, cfg)
    assert got == want or abs(got - want) <= 1e-10


@FUZZ
@given(conllu=conllu_trees())
def test_hierarchy_is_valid_and_uses_exist_exactly_when_needed(conllu):
    tokens = parse_conllu(conllu)
    h = build_hierarchy(tokens)
    validate_hierarchy(h)
    ids = [n.node_id for layer in h.layers for n in layer]
    assert ids == list(range(len(ids)))
    by_index = {t.index: t for t in tokens}

    def reaches_verb(tok):
        while tok.head != 0:
            tok = by_index[tok.head]
            if tok.upos == VERB_TAG:
                return True
        return False

    needed = (not any(t.upos == VERB_TAG for t in tokens)
              or any(not reaches_verb(t) for t in tokens if t.upos in NOUN_TAGS))
    assert h.exist_node_used == needed
    assert [n.token_position for n in h.layers[1]] == \
        [t.index for t in tokens if t.upos == VERB_TAG] + ([None] if needed else [])
    assert [n.token_position for n in h.layers[2]] == [t.index for t in tokens if t.upos in NOUN_TAGS]
