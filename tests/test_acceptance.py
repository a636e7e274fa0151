"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Tolerances and runtime budgets are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from synret.cli import main
from synret.config import RunConfig
from synret.conllu import parse_conllu
from synret.dataset import FeatureBundle, synthetic_bundles
from synret.gradcheck import grad_check, max_relative_error
from synret.hierarchy import (
    build_hierarchy,
    hierarchy_to_json,
    index_hierarchy,
    validate_hierarchy,
)
from synret.metrics import compute_metrics
from synret.params import init_params
from synret.pipeline import text_forward, video_forward
from synret.reference import caption_weights, pair_forward, score_pair, top_k_indices
from synret.rng import SplitMix64
from synret.scoring import dsl_postprocess
from synret.train import (
    batch_loss,
    batch_loss_and_grads,
    selection_margins,
    symmetric_ce_loss,
    train,
)

from conftest import GOLDEN_NAMES


def ok(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d}: PASS - {name}{suffix}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_01_hierarchy_golden_suite(golden_dir):
    t0 = time.perf_counter()
    for name in GOLDEN_NAMES:
        h = build_hierarchy(parse_conllu((golden_dir / f"{name}.conllu").read_text()))
        validate_hierarchy(h)
        got = hierarchy_to_json(h).encode("utf-8")
        want = (golden_dir / f"{name}.hierarchy.json").read_bytes()
        assert got == want, f"golden mismatch: {name}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, "hierarchy golden suite byte-matches", f"10 fixtures, {elapsed:.3f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_02_selection_oracle():
    t0 = time.perf_counter()
    rng = SplitMix64(2024)
    for trial in range(10_000):
        n = 1 + rng.randint(64)
        k = 1 + rng.randint(8)
        scores = rng.uniform_sym(n)
        if trial % 3 == 0 and n >= 2:
            scores[rng.randint(n)] = scores[rng.randint(n)]  # planted tie
        got = list(top_k_indices(scores, k))
        want = sorted(sorted(range(n), key=lambda i: (-scores[i], i))[: min(k, n)])
        assert got == want, f"trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    ok(2, "10,000 top-k selections equal the sort oracle", f"{elapsed:.2f}s")


# -- 3 ----------------------------------------------------------------------


def _oracle_pair(bundle_t: FeatureBundle, bundle_v: FeatureBundle, params, cfg):
    """Independent straight-line recomputation of the whole forward pass."""

    def oln(x, p):
        m = sum(x) / len(x)
        var = sum((v - m) ** 2 for v in x) / len(x)
        s = math.sqrt(var + 1e-5)
        return np.array([(v - m) / s * g + b for v, g, b in zip(x, p.gain, p.bias)])

    def ogelu(z):
        return np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2))) for v in z])

    def omlp(x, mp):
        return mp.w2 @ ogelu(mp.w1 @ x + mp.b1) + mp.b2

    def osoftmax(v):
        mx = max(v)
        e = [math.exp(x - mx) for x in v]
        t = sum(e)
        return np.array([x / t for x in e])

    def otopk(scores, k):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        return sorted(order[: min(k, len(scores))])

    idx = bundle_t.index
    text = bundle_t.text
    f1 = text[0]
    word_mean = text[1:].mean(axis=0)
    f2 = [word_mean if mu is None else text[mu] for mu in idx.mu2]
    f3 = [text[mu] for mu in idx.mu3]
    f4 = [text[mu] for mu in idx.mu4]

    e3p, f3p = [], []
    for i in range(len(f3)):
        e = oln(f3[i] + omlp(f3[i], params.mlp4), params.ln_enhance)
        e3p.append(e)
        kids = idx.adj_children[i]
        if kids:
            alpha = osoftmax([float(e @ f4[j]) for j in kids])
            gamma = sum(alpha[jj] * f4[j] for jj, j in enumerate(kids))
            f3p.append(e + omlp(np.concatenate([e, gamma]), params.fusion))
        else:
            f3p.append(e)

    e1 = oln(f1 + omlp(f1, params.mlp1), params.ln_global)
    e2 = [oln(x + omlp(x, params.mlp2), params.ln_action) for x in f2]
    e3 = [oln(x + omlp(x, params.mlp3), params.ln_entity) for x in f3p]
    m2 = [oln(x + omlp(x, params.mlp5), params.ln_weight) for x in e2]

    # patches are held as stored (float32); the formulas run in float64
    frames, patches = bundle_v.frames, bundle_v.patches.astype(np.float64)
    n_v = frames.shape[0]
    alpha_cls = osoftmax([float(e1 @ frames[j]) for j in range(n_v)])
    ev1 = sum(alpha_cls[j] * frames[j] for j in range(n_v))

    # temporal encoder, head by head
    tp = params.temporal
    d = params.d
    dh = d // params.heads
    x0 = frames + params.pos_emb[:n_v]
    q, k, v = x0 @ tp.wq.T, x0 @ tp.wk.T, x0 @ tp.wv.T
    heads_out = np.zeros((n_v, d))
    for h in range(params.heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(n_v):
            logits = [float(q[i, sl] @ k[j, sl]) / math.sqrt(dh) for j in range(n_v)]
            a = osoftmax(logits)
            heads_out[i, sl] = sum(a[j] * v[j, sl] for j in range(n_v))
    x1 = np.stack([oln(r, tp.ln_attn) for r in (x0 + heads_out @ tp.wo.T)])
    ffn = np.stack([tp.ffn_w2 @ ogelu(tp.ffn_w1 @ r + tp.ffn_b1) + tp.ffn_b2 for r in x1])
    g = np.stack([oln(r, tp.ln_ffn) for r in (x1 + ffn)])

    psi2 = [otopk([float(e2[i] @ g[j]) for j in range(n_v)], cfg.lambda_frame)
            for i in range(len(e2))]
    ev2 = [sum(g[j] for j in sel) / len(sel) for i, sel in enumerate(psi2)]

    ev3 = []
    for i in range(len(e3)):
        sel_frames = psi2[idx.parent3[i]]
        per_frame = []
        for j in sel_frames:
            sel = otopk([float(e3[i] @ patches[j, x]) for x in range(patches.shape[1])],
                        cfg.lambda_patch)
            per_frame.append(sum(patches[j, x] for x in sel) / len(sel))
        if cfg.literal_patch_norm:
            ev3.append(sum(per_frame) / cfg.lambda_patch)
        else:
            ev3.append(sum(per_frame) / len(per_frame))

    score1 = float(e1 @ ev1)
    score2 = [float(e2[i] @ ev2[i]) for i in range(len(e2))]
    score3 = [float(e3[i] @ ev3[i]) for i in range(len(e3))]
    sim2 = [float(e1 @ m) for m in m2]
    w2 = osoftmax(sim2)
    if e3:
        sim3 = [float(m2[idx.parent3[i]] @ e3[i]) for i in range(len(e3))]
        w3 = osoftmax([sim2[idx.parent3[i]] + sim3[i] for i in range(len(e3))])
        s3 = float(sum(w3[i] * score3[i] for i in range(len(e3))))
    else:
        sim3, w3, s3 = [], [], 0.0
    s2 = float(sum(w2[i] * score2[i] for i in range(len(e2))))
    final = (score1 + s2 + s3) / 3.0
    return {
        "e3p": e3p, "f3p": f3p, "e1": e1, "e2": e2, "e3": e3, "m2": m2,
        "alpha_cls": alpha_cls, "ev1": ev1, "g": g, "psi2": psi2, "ev2": ev2,
        "ev3": ev3, "sim2": sim2, "w2": w2, "sim3": sim3, "w3": w3,
        "scores": (score1, score2, score3), "layers": (score1, s2, s3),
        "final": final,
    }


def test_criterion_03_formula_oracles(small_setup):
    t0 = time.perf_counter()
    bundles, params, cfg = small_setup
    tol = 1e-10
    worst = 0.0

    def check(got, want):
        nonlocal worst
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(got) else 0.0
        worst = max(worst, err)
        assert err <= tol

    combos = [(0, 1), (1, 0), (2, 3), (3, 2), (0, 0)]
    for ti, vi in combos:
        tc, tape = text_forward([bundles[ti]], params)
        vc = video_forward([bundles[vi]], params)[0][0]
        pf = pair_forward(tc, vc, cfg)
        bd = score_pair(tc, tc, pf)
        o = _oracle_pair(bundles[ti], bundles[vi], params, cfg)

        if tc.indexes[0].n_entities:
            check(tape.e3p, np.stack(o["e3p"]))    # entity enhancement
            check(tape.f3p, np.stack(o["f3p"]))
            check(tc.e3, np.stack(o["e3"]))
        check(tc.e1[0], o["e1"])
        check(tc.e2, np.stack(o["e2"]))
        check(tc.m2, np.stack(o["m2"]))
        check(pf.alpha_cls, o["alpha_cls"])         # global fusion
        check(pf.ev1, o["ev1"])
        check(vc.g, o["g"])                         # temporal encoding
        assert [list(s) for s in pf.psi2] == o["psi2"]  # frame selection
        check(pf.ev2, np.stack(o["ev2"]))
        if tc.indexes[0].n_entities:
            check(pf.ev3, np.stack(o["ev3"]))       # patch selection
        wc = caption_weights(tc)                    # the oracle's similarities
        check(wc.sim2, o["sim2"])                   # action weights
        check(tc.w2, o["w2"])
        if tc.indexes[0].n_entities:
            check(wc.sim3, o["sim3"])               # entity weights
            check(tc.w3, o["w3"])
        check(bd.layer_scores, o["layers"])         # layer aggregation
        check(bd.final, o["final"])

    # symmetric cross-entropy against a straight-line recompute
    rng = SplitMix64(303)
    s = rng.uniform_sym((4, 4))
    loss, _ = symmetric_ce_loss(s, 4.0)
    t2v = -sum(math.log(math.exp(4 * s[i, i]) / sum(math.exp(4 * s[i, j]) for j in range(4)))
               for i in range(4)) / 4
    v2t = -sum(math.log(math.exp(4 * s[i, i]) / sum(math.exp(4 * s[j, i]) for j in range(4)))
               for i in range(4)) / 4
    check(loss, 0.5 * (t2v + v2t))

    # dual-softmax postprocessing
    s5 = rng.uniform_sym((5, 5))
    for direction, axis in (("t2v", 0), ("v2t", 1)):
        got = dsl_postprocess(s5, 100.0, direction)
        want = np.zeros_like(s5)
        for i in range(5):
            for j in range(5):
                col = s5[:, j] if axis == 0 else s5[i, :]
                mx = (100.0 * col).max()
                num = math.exp(100.0 * s5[i, j] - mx)
                den = sum(math.exp(100.0 * c - mx) for c in col)
                want[i, j] = s5[i, j] * num / den
        check(got, want)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    ok(3, "all fusion/scoring/loss ops match straight-line oracles",
       f"max abs err {worst:.1e}, {elapsed:.2f}s")


# -- 4 ----------------------------------------------------------------------


def test_criterion_04_gradient_check(small_setup):
    t0 = time.perf_counter()
    bundles, params, cfg = small_setup  # B=4, d=8, N_v=4, N_p=9
    margin = selection_margins(bundles, params, cfg)
    assert margin > 1e-3, "fixture must be tie-free"
    _, grads, _ = batch_loss_and_grads(bundles, params, cfg)
    report = grad_check(lambda: batch_loss(bundles, params, cfg), grads, params, h=1e-4)
    worst = max_relative_error(report)
    assert worst < 1e-4, f"max rel err {worst}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(4, "analytic gradients match central differences",
       f"max rel err {worst:.1e}, margin {margin:.1e}, {elapsed:.1f}s")


# -- 5 ----------------------------------------------------------------------


def test_criterion_05_loss_identities():
    for b in (2, 4, 8):
        loss, grad = symmetric_ce_loss(np.full((b, b), 0.77), 4.0)
        assert abs(loss - math.log(b)) <= 1e-9
        assert np.abs(grad.sum(axis=0)).max() <= 1e-10
        assert np.abs(grad.sum(axis=1)).max() <= 1e-10
    ok(5, "uniform-matrix loss equals ln B and gradient margins vanish", "B in {2,4,8}")


# -- 6 ----------------------------------------------------------------------


def test_criterion_06_weight_normalization(small_setup, golden_dir):
    bundles, params, cfg = small_setup
    checked = 0
    for b in bundles:
        tc = text_forward([b], params)[0]
        assert abs(tc.w2.sum() - 1.0) <= 1e-9
        if tc.w3.size:
            assert abs(tc.w3.sum() - 1.0) <= 1e-9
        if tc.w2.size == 1:
            assert tc.w2[0] == 1.0
        if tc.w3.size == 1:
            assert tc.w3[0] == 1.0
        checked += 1
    # single-node layers yield exactly 1.0: one verb, one noun
    single = _bundle_from_conllu(golden_dir / "simple.conllu", seed=61, d=8)
    tc = text_forward([single], params)[0]
    assert tc.w2.tolist() == [1.0] and tc.w3.tolist() == [1.0]
    # the published trained weights obey the same normalization
    assert abs((0.4970 + 0.5030) - 1.0) <= 1e-9
    assert abs((0.2970 + 0.3543 + 0.3487) - 1.0) <= 1e-9
    ok(6, "per-layer weights always sum to 1", f"{checked + 1} captions")


def _bundle_from_conllu(path, seed, d, n_frames=4, n_patches=9):
    tokens = parse_conllu(path.read_text())
    rng = SplitMix64(seed)
    unit = lambda shape: (lambda x: x / np.linalg.norm(x, axis=-1, keepdims=True))(
        rng.uniform_sym(shape))
    return FeatureBundle(
        pair_id=path.stem, index=index_hierarchy(build_hierarchy(tokens)),
        text=unit((len(tokens) + 1, d)), frames=unit((n_frames, d)),
        patches=unit((n_frames, n_patches, d)),
    )


# -- 7 ----------------------------------------------------------------------


def test_criterion_07_final_score_identity(small_setup, golden_dir):
    bundles, params, cfg = small_setup
    rng = SplitMix64(700)
    texts = [synthetic_bundles(s, 1, 6, 4, 9, 8)[0] for s in range(10)]
    videos = [synthetic_bundles(100 + s, 1, 6, 4, 9, 8)[0] for s in range(10)]
    count = 0
    for bt in texts:
        tc = text_forward([bt], params)[0]
        for bv in videos:
            pf = pair_forward(tc, video_forward([bv], params)[0][0], cfg)
            bd = score_pair(tc, tc, pf)
            s1, s2, s3 = bd.layer_scores
            assert bd.final == (s1 + s2 + s3) / 3.0  # bitwise
            count += 1
    assert count == 100
    # caption without entities: declared policy keeps the divisor at 3
    nouns_free = _bundle_from_conllu(golden_dir / "punct_only.conllu", seed=71, d=8)
    tc = text_forward([nouns_free], params)[0]
    pf = pair_forward(tc, video_forward([videos[0]], params)[0][0], cfg)
    bd = score_pair(tc, tc, pf)
    s1, s2, s3 = bd.layer_scores
    assert s3 == 0.0
    assert bd.final == (s1 + s2) / 3.0
    ok(7, "final score is exactly the three-layer mean", "100 pairs + entity-free caption")


# -- 8 / 9 -------------------------------------------------------------------


OVERFIT_CFG = {
    "d": 16, "max_frames": 4, "seed": 1, "tau": 4.0,
    "lambda_frame": 2, "lambda_patch": 4,
    "batch_size": 4, "steps": 500, "lr": 1e-3, "stop_loss": 0.01,
}


def _run_overfit_pipeline(root):
    fx = root / "fx"
    ckpt = root / "ckpt"
    cfgp = root / "train.json"
    cfgp.write_text(json.dumps(OVERFIT_CFG))
    assert main(["gen-fixtures", "--seed", "1", "--pairs", "8", "--tokens", "6",
                 "--frames", "4", "--patches", "9", "--dim", "16", "--out", str(fx)]) == 0
    manifest = str(fx / "manifest.json")
    assert main(["train", "--manifest", manifest, "--config", str(cfgp),
                 "--out", str(ckpt)]) == 0
    report = root / "report.json"
    assert main(["eval", "--manifest", manifest, "--params", str(ckpt),
                 "--report", str(report), "--config", str(cfgp)]) == 0
    scores = root / "scores.shet"
    assert main(["score", "--manifest", manifest, "--params", str(ckpt),
                 "--out", str(scores), "--config", str(cfgp)]) == 0
    return manifest, ckpt, report, scores, cfgp


def test_criterion_08_overfit_run(tmp_path):
    t0 = time.perf_counter()
    _, ckpt, report, _, _ = _run_overfit_pipeline(tmp_path)
    rows = (ckpt / "loss.csv").read_text().strip().splitlines()
    steps = len(rows) - 1
    final_loss = float(rows[-1].split(",")[1])
    rep = json.loads(report.read_text())
    elapsed = time.perf_counter() - t0
    assert steps <= 500
    assert final_loss < 0.05
    assert rep["t2v"]["r1"] == 100.0 and rep["v2t"]["r1"] == 100.0
    assert elapsed < 300.0
    ok(8, "overfit run reaches perfect recall",
       f"{steps} steps, loss {final_loss:.4f}, {elapsed:.1f}s")


def test_criterion_09_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    _, ckpt_a, report_a, scores_a, cfg_a = _run_overfit_pipeline(a)
    manifest_b, ckpt_b, report_b, scores_b, _ = _run_overfit_pipeline(b)
    for f in sorted(ckpt_a.iterdir()):
        assert f.read_bytes() == (ckpt_b / f.name).read_bytes(), f.name
    assert scores_a.read_bytes() == scores_b.read_bytes()
    assert report_a.read_bytes() == report_b.read_bytes()
    # thread count must not change any output byte
    s1, s4 = tmp_path / "t1.shet", tmp_path / "t4.shet"
    assert main(["score", "--manifest", manifest_b, "--params", str(ckpt_b),
                 "--out", str(s1), "--config", str(cfg_a), "--threads", "1"]) == 0
    assert main(["score", "--manifest", manifest_b, "--params", str(ckpt_b),
                 "--out", str(s4), "--config", str(cfg_a), "--threads", "4"]) == 0
    assert s1.read_bytes() == s4.read_bytes()
    ok(9, "checkpoints, scores, and reports are byte-identical across reruns",
       "threads 4 == threads 1")


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_metrics_oracle():
    rng = SplitMix64(1010)
    s = rng.uniform_sym((50, 50))
    for direction in ("t2v", "v2t"):
        m = compute_metrics(s, direction)
        if direction == "t2v":
            ranks = [1 + sum(1 for j in range(50) if s[i, j] > s[i, i]) for i in range(50)]
        else:
            ranks = [1 + sum(1 for i in range(50) if s[i, j] > s[j, j]) for j in range(50)]
        for k in (1, 5, 10):
            assert m.r_at[k] == 100.0 * sum(1 for r in ranks if r <= k) / 50
        assert m.mdr == float(sorted(ranks)[24])
        assert m.meanr == float(np.mean(ranks))
        rsum_parts = sum(m.r_at.values())
        assert 0.0 <= rsum_parts <= 300.0
    # even-count median convention on a 4x4 with ranks [1,2,3,4]
    s4 = np.array([
        [10.0, 0.0, 0.0, 0.0],
        [9.0, 8.0, 0.0, 0.0],
        [9.0, 9.5, 7.0, 0.0],
        [9.0, 9.5, 9.9, 6.0],
    ])
    assert compute_metrics(s4, "t2v").mdr == 2.0
    ok(10, "metrics equal brute-force ranks exactly", "50x50 + even-median case")


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_selection_budget_sweep():
    t0 = time.perf_counter()
    bundles = synthetic_bundles(1, 8, 6, 4, 9, 16)
    results = []
    for lf in (1, 2, 4):
        for lp in (1, 4, 9):
            params = init_params(1, 16, max_frames=4)
            run = RunConfig(d=16, max_frames=4, seed=1, lambda_frame=lf, lambda_patch=lp,
                            batch_size=4, steps=500, lr=1e-3, stop_loss=0.01)
            curve = train(bundles, params, run)
            assert all(np.isfinite(loss) for _, loss in curve)
            from synret.scoring import score_matrix
            s = score_matrix(bundles, bundles, params, run)
            assert np.isfinite(s).all()
            t2v = compute_metrics(s, "t2v").r_at[1]
            v2t = compute_metrics(s, "v2t").r_at[1]
            assert t2v == 100.0 and v2t == 100.0, f"(lf={lf}, lp={lp})"
            results.append((lf, lp, len(curve)))
    elapsed = time.perf_counter() - t0
    ok(11, "every selection-budget combination reaches perfect recall",
       f"9 configs, {elapsed:.1f}s")
