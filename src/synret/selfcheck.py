"""Built-in invariant suite backing the `selfcheck` CLI command.

Each check is small, deterministic, and independent of external files; the
whole suite runs in a few seconds and is meant as the CI gate.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from .blocks import dot_softmax_attend, transformer_encode
from .config import RunConfig
from .conllu import parse_conllu
from .dataset import synthetic_bundles
from .errors import DataError, SynretError
from .gradcheck import grad_check, max_relative_error
from .hierarchy import build_hierarchy, validate_hierarchy
from .metrics import compute_metrics
from .params import init_params
from .rng import SplitMix64
from .pipeline import ENCODE_CHUNK, text_forward, video_forward
from .reference import pair_forward, score_pair
from .scoring import fuse_pair, rank, score_matrix, text_weights
from .tensor_store import gen_fixture, read_tensor, write_tensor
from .train import batch_loss, batch_loss_and_grads, selection_margins, symmetric_ce_loss

_SAMPLE_CONLLU = """\
1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_
2\tman\tman\tNOUN\t_\t_\t4\tnsubj\t_\t_
3\tis\tbe\tAUX\t_\t_\t4\taux\t_\t_
4\tsinging\tsing\tVERB\t_\t_\t0\troot\t_\t_
"""

_VERBLESS_CONLLU = """\
1\tred\tred\tADJ\t_\t_\t2\tamod\t_\t_
2\tcars\tcar\tNOUN\t_\t_\t0\troot\t_\t_
"""


def _check_tensor_roundtrip() -> str:
    rng = SplitMix64(11)
    with tempfile.TemporaryDirectory() as tmp:
        for shape in [(2, 2), (0,), (3, 4, 5), (1,), (2, 0, 3)]:
            t = rng.uniform_sym(shape).astype(np.float32)
            p = Path(tmp) / "t.shet"
            write_tensor(t, p)
            back = read_tensor(p)
            if back.shape != t.shape or not np.array_equal(back, t):
                raise SynretError(f"round-trip failed for shape {shape}")
        bad = Path(tmp) / "bad.shet"
        bad.write_bytes(b"NOPE" + bytes(16))
        try:
            read_tensor(bad)
            raise SynretError("bad magic accepted")
        except DataError:
            pass
    return "round-trip + rejection on 5 shapes"


def _check_fixture_determinism() -> str:
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        gen_fixture(5, 2, 5, 3, 4, 8, a)
        gen_fixture(5, 2, 5, 3, 4, 8, b)
        files_a = sorted(Path(a).iterdir())
        files_b = sorted(Path(b).iterdir())
        if [f.name for f in files_a] != [f.name for f in files_b]:
            raise SynretError("fixture file sets differ")
        for fa, fb in zip(files_a, files_b):
            if fa.read_bytes() != fb.read_bytes():
                raise SynretError(f"fixture bytes differ: {fa.name}")
    return "byte-identical regeneration"


def _check_hierarchy() -> str:
    h = build_hierarchy(parse_conllu(_SAMPLE_CONLLU))
    validate_hierarchy(h)
    if [n.token_position for n in h.layers[1]] != [4]:
        raise SynretError("verb layer wrong")
    h2 = build_hierarchy(parse_conllu(_VERBLESS_CONLLU))
    validate_hierarchy(h2)
    if not h2.exist_node_used or len(h2.layers[3]) != 1:
        raise SynretError("verbless fallback wrong")
    return "builder invariants on sample parses"


def _check_topk() -> str:
    rng = SplitMix64(23)
    for trial in range(2000):
        n = 1 + rng.randint(32)
        k = 1 + rng.randint(8)
        scores = rng.uniform_sym(n)
        if trial % 3 == 0 and n >= 2:
            scores[rng.randint(n)] = scores[rng.randint(n)]  # plant a tie
        order, ranked = rank(scores)
        want = sorted(range(n), key=lambda i: (-scores[i], i))[: min(k, n)]
        if order[:k].tolist() != want or not np.array_equal(ranked, scores[order]):
            raise SynretError(f"top-k mismatch on trial {trial}")
    return "2000 randomized calls of scoring.rank vs sort oracle"


def _check_attention() -> str:
    rng = SplitMix64(31)
    for _ in range(50):
        n = 1 + rng.randint(6)
        q = rng.uniform_sym(8)
        keys = rng.uniform_sym((n, 8))
        w, pooled, _ = dot_softmax_attend(q, keys, keys)
        if abs(w.sum() - 1.0) > 1e-12:
            raise SynretError("attention weights do not sum to 1")
        lo, hi = keys.min(axis=0), keys.max(axis=0)
        if not ((pooled >= lo - 1e-12) & (pooled <= hi + 1e-12)).all():
            raise SynretError("pooled vector left the convex hull")
    return "weight normalization + convex hull, 50 cases"


def _check_transformer_equivariance() -> str:
    params = init_params(17, 8, max_frames=6)
    params.pos_emb[...] = 0.0
    rng = SplitMix64(19)
    x = rng.uniform_sym((5, 8))
    out, _ = transformer_encode(x, params.temporal, params.pos_emb, params.heads)
    perm = [3, 0, 4, 1, 2]
    out_p, _ = transformer_encode(x[perm], params.temporal, params.pos_emb, params.heads)
    if not np.allclose(out_p, out[perm], atol=1e-12):
        raise SynretError("permutation equivariance violated")
    return "row-permutation equivariance with zeroed positions"


def _check_loss_identities() -> str:
    for b in (2, 4, 8):
        loss, grad = symmetric_ce_loss(np.full((b, b), 0.37), 4.0)
        if abs(loss - np.log(b)) > 1e-9:
            raise SynretError(f"uniform loss != ln {b}")
        if np.abs(grad.sum(axis=0)).max() > 1e-10 or np.abs(grad.sum(axis=1)).max() > 1e-10:
            raise SynretError("uniform-matrix gradient margins nonzero")
    rng = SplitMix64(41)
    s = rng.uniform_sym((5, 5))
    _, grad = symmetric_ce_loss(s, 4.0)
    if abs(grad.sum()) > 1e-10:
        raise SynretError("gradient total is nonzero")
    return "uniform-matrix value + gradient sums, B in {2,4,8}"


def _check_metrics() -> str:
    rng = SplitMix64(47)
    s = rng.uniform_sym((20, 20))
    m = compute_metrics(s, "t2v")
    ranks = []
    for i in range(20):
        ranks.append(1 + sum(1 for j in range(20) if s[i, j] > s[i, i]))
    want_r1 = 100.0 * sum(1 for r in ranks if r <= 1) / 20
    if m.r_at[1] != want_r1 or m.meanr != float(np.mean(ranks)):
        raise SynretError("metrics disagree with brute-force ranks")
    return "20x20 vs brute-force ranks"


def _check_weight_normalization() -> str:
    bundles = synthetic_bundles(13, 4, 6, 3, 4, 8)
    params = init_params(13, 8, max_frames=3)
    tc = text_forward(bundles, params)[0]
    wc = text_weights(tc)
    if np.abs(np.bincount(tc.owner2, wc.w2) - 1.0).max() > 1e-9:
        raise SynretError("action weights do not sum to 1")
    w3_sums = np.bincount(tc.owner3, wc.w3, minlength=len(bundles))
    if np.abs(w3_sums - 1.0)[np.diff(tc.first3) > 0].max(initial=0.0) > 1e-9:
        raise SynretError("entity weights do not sum to 1")
    return "per-caption weight sums on 4 synthetic pairs"


def _check_score_kernel() -> str:
    # more videos than one encode chunk, so a chunk boundary is crossed
    bundles = synthetic_bundles(37, ENCODE_CHUNK + 4, 6, 3, 5, 8)
    captions = bundles[:4]
    params = init_params(37, 8, max_frames=3)
    vids = [video_forward([bv], params)[0][0] for bv in bundles]
    worst = 0.0
    for literal in (False, True):
        cfg = RunConfig(d=8, max_frames=3, seed=37, literal_patch_norm=literal)
        got = score_matrix(captions, bundles, params, cfg)
        for i, bt in enumerate(captions):
            tc = text_forward([bt], params)[0]
            cap, wc = tc.caption(0), text_weights(tc)
            for j, vid in enumerate(vids):
                pf = pair_forward(cap, vid, cfg)  # per-pair path
                fp = fuse_pair(tc, vid, cfg)
                if (fp.frames.tolist() != [sel.tolist() for sel in pf.psi2] or fp.patches.tolist()
                        != [[sel.tolist() for sel in per] for per in pf.psi3]):
                    raise SynretError(f"fuse_pair picks differ from the per-pair path at ({i}, {j})")
                worst = max(worst, abs(got[i, j] - score_pair(cap, wc, pf).final),
                            *(np.abs(a - b).max(initial=0.0) for a, b in
                              [(fp.ev1, pf.ev1), (fp.ev2, pf.ev2), (fp.ev3, pf.ev3)]))
    if worst > 1e-10:
        raise SynretError(f"score kernel differs from the per-pair path by {worst:.2e}")
    return (f"{len(captions)}x{len(bundles)} scores, fused features and selections vs "
            f"per-pair path, both patch norms, max diff {worst:.1e}")


def _check_gradients() -> str:
    cfg = RunConfig(d=8, max_frames=3, seed=0)
    bundles = params = None
    for seed in range(10):
        cand = synthetic_bundles(seed, 2, 5, 3, 4, 8)
        cand_params = init_params(seed + 100, 8, max_frames=3)
        if selection_margins(cand, cand_params, cfg) > 5e-3:
            bundles, params = cand, cand_params
            break
    if bundles is None:
        raise SynretError("no tie-free fixture found")
    _, grads, _ = batch_loss_and_grads(bundles, params, cfg)
    report = grad_check(lambda: batch_loss(bundles, params, cfg), grads, params, h=1e-4)
    worst = max_relative_error(report)
    if worst >= 1e-4:
        raise SynretError(f"gradient check failed: {worst:.2e}")
    return f"finite-difference max rel err {worst:.1e}"


def _check_determinism() -> str:
    bundles = synthetic_bundles(29, 3, 5, 3, 4, 8)
    params = init_params(7, 8, max_frames=3)
    cfg = RunConfig(d=8, max_frames=3, seed=29)
    l1, g1, s1 = batch_loss_and_grads(bundles, params, cfg)
    l2, g2, s2 = batch_loss_and_grads(bundles, params, cfg)
    if l1 != l2 or not np.array_equal(s1, s2):
        raise SynretError("loss or scores differ between identical runs")
    for (_, a), (_, b) in zip(g1.named_tensors(), g2.named_tensors()):
        if not np.array_equal(a, b):
            raise SynretError("gradients differ between identical runs")
    return "bit-identical repeated evaluation"


CHECKS = [
    ("tensor-store", _check_tensor_roundtrip),
    ("fixture-determinism", _check_fixture_determinism),
    ("hierarchy", _check_hierarchy),
    ("top-k", _check_topk),
    ("attention", _check_attention),
    ("transformer", _check_transformer_equivariance),
    ("loss", _check_loss_identities),
    ("metrics", _check_metrics),
    ("weights", _check_weight_normalization),
    ("score-kernel", _check_score_kernel),
    ("gradients", _check_gradients),
    ("determinism", _check_determinism),
]


def run_selfcheck(out=print) -> int:
    """Run every invariant check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            detail = fn()
            out(f"ok   {name}: {detail}")
        except Exception as e:  # report and keep going
            failures += 1
            out(f"FAIL {name}: {e}")
    out(f"selfcheck: {len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return failures
