import errno
import os
from types import SimpleNamespace

import numpy as np
import pytest

from synret.config import RunConfig
from synret.dataset import synthetic_bundles
from synret.params import init_params
from synret.pipeline import text_forward, video_forward
from synret.reference import pair_forward, score_pair
from synret.scoring import text_weights

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
    """Once called, every file that synret.tensor_store opens for writing
    fails part-way."""
    import synret.tensor_store

    def half_open(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _HalfWriter(f) if "w" in mode else f

    return lambda: monkeypatch.setattr(synret.tensor_store, "open", half_open, raising=False)


@pytest.fixture(scope="session")
def small_setup():
    """Shared tiny model + data: d=8, 4 pairs, 4 frames, 9 patches."""
    bundles = synthetic_bundles(7, 4, 6, 4, 9, 8)
    params = init_params(3, 8, max_frames=4)
    cfg = RunConfig(d=8, max_frames=4, seed=3)
    return bundles, params, cfg


def encode_pair(bt, bv, params):
    """One caption and one video through the batch encoders, in the form the
    per-pair reference path (`pair_forward` + `score_pair`) takes them."""
    tc = text_forward([bt], params)[0]
    return tc.caption(0), text_weights(tc), video_forward([bv], params)[0][0]


def reference_score(bt, bv, params, cfg) -> float:
    cap, wc, vid = encode_pair(bt, bv, params)
    return score_pair(cap, wc, pair_forward(cap, vid, cfg)).final


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
            cap, _, vc = encode_pair(bt, bv, params)
            pf = pair_forward(cap, vc, cfg)  # per-pair path
            for row in cap.e2 @ vc.g.T:
                want = min(want, kth_gap(row, cfg.lambda_frame))
            for ei in range(cap.index.n_entities):
                for fj in pf.psi2[cap.index.parent3[ei]]:
                    want = min(want, kth_gap(vc.patches[fj] @ cap.e3[ei], cfg.lambda_patch))
    return want


def tie_fixture():
    """Small integer features that make every node score exact in every
    path. Frames 0 and 2 tie while holding different patches, so a tie broken
    the other way changes the entity scores. Returns (video, captions,
    stack), where `stack` holds both captions' nodes the way a TextCache
    does."""
    g = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    patches = np.array([
        [[0.0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        [[0, 0, 0, 2], [0, 0, 2, 0], [1, 1, 1, 1]],
        [[0, 0, 3, 0], [0, 0, 0, -1], [0, 0, 0, 3]],
    ])
    vid = SimpleNamespace(frames=g, g=g, patches=patches)
    e2 = np.array([[2.0, 1, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0]])
    caps = [
        SimpleNamespace(e1=np.array([1.0, 0, 0, 0]), e2=e2, m2=e2,
                        e3=np.array([[0.0, 0, 1, 1], [0, 0, 1, 0], [0, 0, 0, 1]]),
                        index=SimpleNamespace(parent3=[0, 1, 2])),
        SimpleNamespace(e1=np.array([0.0, 1, 0, 0]), e2=e2[2:], m2=e2[2:],
                        e3=np.zeros((0, 4)), index=SimpleNamespace(parent3=[])),
    ]
    stack = SimpleNamespace(
        e1=np.stack([c.e1 for c in caps]), e2=np.concatenate([c.e2 for c in caps]),
        m2=np.concatenate([c.m2 for c in caps]), e3=np.concatenate([c.e3 for c in caps]),
        owner2=np.array([0, 0, 0, 1]), owner3=np.array([0, 0, 0]), parent3=np.array([0, 1, 2]),
        indexes=[c.index for c in caps], caption=caps.__getitem__,
    )
    return vid, caps, stack
