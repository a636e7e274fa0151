"""Retrieval metrics against brute-force rank computation."""

import numpy as np
import pytest

from synret.errors import DataError
from synret.metrics import compute_metrics, evaluate_matrix, true_item_ranks
from synret.rng import SplitMix64


def brute_force_ranks(s, direction):
    n_t, n_v = s.shape
    if direction == "t2v":
        return [1 + sum(1 for j in range(n_v) if s[i, j] > s[i, i]) for i in range(n_t)]
    return [1 + sum(1 for i in range(n_t) if s[i, j] > s[j, j]) for j in range(n_v)]


def test_identity_dominant_matrix_is_perfect():
    s = np.eye(5) + 0.01
    for direction in ("t2v", "v2t"):
        m = compute_metrics(s, direction)
        assert m.r_at == {1: 100.0, 5: 100.0, 10: 100.0}
        assert m.mdr == 1.0 and m.meanr == 1.0


def test_antidiagonal_hand_computed():
    # scores concentrated on the antidiagonal of a 4x4
    s = np.fliplr(np.eye(4)) * 5.0
    m = compute_metrics(s, "t2v")
    # rows 0,1,2,3 have their true score 0 except none; every row has exactly
    # one strictly larger score (the antidiagonal 5) unless it sits on the
    # diagonal... for 4x4 the antidiagonal never hits the diagonal
    assert brute_force_ranks(s, "t2v") == [2, 2, 2, 2]
    assert m.r_at[1] == 0.0
    assert m.r_at[5] == 100.0
    assert m.mdr == 2.0 and m.meanr == 2.0


def test_random_50x50_matches_brute_force_exactly():
    rng = SplitMix64(101)
    s = rng.uniform_sym((50, 50))
    for direction in ("t2v", "v2t"):
        got = compute_metrics(s, direction)
        ranks = brute_force_ranks(s, direction)
        n = len(ranks)
        for k in (1, 5, 10):
            assert got.r_at[k] == 100.0 * sum(1 for r in ranks if r <= k) / n
        assert got.mdr == float(sorted(ranks)[(n - 1) // 2])
        assert got.meanr == float(np.mean(ranks))


def test_median_even_count_takes_lower_middle():
    # ranks engineered to be [1, 2, 3, 4]: median must be 2, not 2.5
    s = np.array([
        [10.0, 0.0, 0.0, 0.0],   # rank 1
        [9.0, 8.0, 0.0, 0.0],    # rank 2
        [9.0, 9.5, 7.0, 0.0],    # rank 3
        [9.0, 9.5, 9.9, 6.0],    # rank 4
    ])
    assert brute_force_ranks(s, "t2v") == [1, 2, 3, 4]
    m = compute_metrics(s, "t2v")
    assert m.mdr == 2.0
    assert m.meanr == 2.5


def test_ties_favor_true_item():
    s = np.zeros((3, 3))  # everything tied
    m = compute_metrics(s, "t2v")
    assert m.r_at[1] == 100.0 and m.mdr == 1.0


def test_permutation_relabel_invariance():
    rng = SplitMix64(103)
    s = rng.uniform_sym((12, 12))
    perm = list(range(12))
    SplitMix64(5).shuffle(perm)
    # permute videos and relabel ground truth accordingly: metrics unchanged
    s_perm = s[np.ix_(perm, perm)]
    for direction in ("t2v", "v2t"):
        a = compute_metrics(s, direction)
        b = compute_metrics(s_perm, direction)
        assert a.r_at == b.r_at and a.mdr == b.mdr and a.meanr == b.meanr


def test_rsum_aggregates_both_directions():
    rng = SplitMix64(104)
    s = rng.uniform_sym((20, 20))
    rep = evaluate_matrix(s)
    want = sum(rep["t2v"][f"r{k}"] for k in (1, 5, 10)) + \
        sum(rep["v2t"][f"r{k}"] for k in (1, 5, 10))
    assert rep["rsum"] == want


def test_directions_rank_their_own_matrix():
    rng = SplitMix64(106)
    a, b = rng.uniform_sym((12, 12)), rng.uniform_sym((12, 12))
    rep = evaluate_matrix(a, b)
    assert rep["t2v"] == compute_metrics(a, "t2v").to_dict()
    assert rep["v2t"] == compute_metrics(b, "v2t").to_dict()
    assert rep["rsum"] == sum(rep["t2v"][f"r{k}"] for k in (1, 5, 10)) + \
        sum(rep["v2t"][f"r{k}"] for k in (1, 5, 10))


def test_rsum_requires_square():
    with pytest.raises(DataError, match="square"):
        evaluate_matrix(np.zeros((3, 4)))


def test_rank_bounds():
    rng = SplitMix64(105)
    s = rng.uniform_sym((9, 9))
    ranks = true_item_ranks(s, "t2v")
    assert (ranks >= 1).all() and (ranks <= 9).all()


def test_recall_monotone_in_k():
    rng = SplitMix64(106)
    for _ in range(5):
        s = rng.uniform_sym((15, 15))
        m = compute_metrics(s, "t2v")
        assert m.r_at[1] <= m.r_at[5] <= m.r_at[10]
