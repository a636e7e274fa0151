import errno
import os
from types import SimpleNamespace

import numpy as np
import pytest

from synret.config import RunConfig
from synret.dataset import synthetic_bundles
from synret.params import init_params
from synret.pipeline import TextCache, text_forward, video_forward
from synret.reference import caption_weights, pair_forward, score_pair

GOLDEN_NAMES = [
    "adj_root",
    "aux_only",
    "deep_chain",
    "orphan_noun",
    "pronoun",
    "propn",
    "punct_only",
    "simple",
    "two_verbs",
    "verbless",
]


@pytest.fixture(scope="session")
def golden_dir(request):
    return request.config.rootpath / "tests" / "golden"


class _HalfWriter:
    """A file that writes half of what it is given, then fails as a full disk
    does."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        self.f.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture()
def fail_writes(monkeypatch):
    """Once called as `fail_writes(after=n)`, every file that
    synret.tensor_store opens for writing after the next n fails part-way."""
    import synret.tensor_store

    def start(after=0):
        def half_open(file, mode="r", *args, **kwargs):
            nonlocal after
            f = open(file, mode, *args, **kwargs)
            if "w" not in mode:
                return f
            after -= 1
            return f if after >= 0 else _HalfWriter(f)

        monkeypatch.setattr(synret.tensor_store, "open", half_open, raising=False)

    return start


@pytest.fixture(scope="session")
def small_setup():
    """Shared tiny model + data: d=8, 4 pairs, 4 frames, 9 patches."""
    bundles = synthetic_bundles(7, 4, 6, 4, 9, 8)
    params = init_params(3, 8, max_frames=4)
    cfg = RunConfig(d=8, max_frames=4, seed=3)
    return bundles, params, cfg


def encode_pair(bt, bv, params):
    """One caption and one video through the batch encoders, in the form the
    per-pair reference path (`pair_forward` + `score_pair`) takes them: the
    caption as a stack of one, with its weights from the reference path's
    own `caption_weights`."""
    tc = text_forward([bt], params)[0]
    return tc, caption_weights(tc), video_forward([bv], params)[0][0]


def reference_score(bt, bv, params, cfg) -> float:
    tc, wc, vid = encode_pair(bt, bv, params)
    return score_pair(tc, wc, pair_forward(tc, vid, cfg)).final


def per_pair_selection_margin(bundles, params, cfg) -> float:
    """Brute-force `selection_margins`: the smallest gap between the kth and
    (k+1)th sorted score of every action's frame row and every entity's patch
    row inside its parent's picked frames, over every pair on the per-pair
    path."""
    def kth_gap(scores, k):
        ordered = np.sort(scores)[::-1]
        return ordered[k - 1] - ordered[k] if k < ordered.size else np.inf

    want = np.inf
    for bt in bundles:
        for bv in bundles:
            tc, _, vc = encode_pair(bt, bv, params)
            pf = pair_forward(tc, vc, cfg)  # per-pair path
            for row in tc.e2 @ vc.g.T:
                want = min(want, kth_gap(row, cfg.lambda_frame))
            for ei, parent in enumerate(tc.indexes[0].parent3):
                for fj in pf.psi2[parent]:
                    want = min(want, kth_gap(vc.patches[fj] @ tc.e3[ei], cfg.lambda_patch))
    return want


def tie_fixture():
    """Small integer features that make every node score exact in every
    path. Frames 0 and 2 tie while holding different patches, so a tie broken
    the other way changes the entity scores. Returns (video, stack), where
    `stack` is the TextCache of both captions; `stack.single(i)` is caption
    i alone."""
    g = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    patches = np.array([
        [[0.0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0, 0, 0, 2], [0, 0, 2, 0], [1, 1, 1, 1]],
        [[0, 0, 3, 0], [0, 0, 0, -1], [0, 0, 0, 3]],
    ])
    vid = SimpleNamespace(frames=g, g=g, patches=patches)
    e2 = np.array([[2.0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0]])
    e2 = np.concatenate([e2, e2[2:]])  # caption 0 has actions 0-2, caption 1 action 3
    stack = TextCache.stack(
        [SimpleNamespace(parent3=[0, 1, 2], n_actions=3, n_entities=3),
         SimpleNamespace(parent3=[], n_actions=1, n_entities=0)],
        np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]]), e2,
        np.array([[0.0, 0, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]), e2,
    )
    return vid, stack
