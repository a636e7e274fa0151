"""Checks on the program's outputs, computed apart from the code they check.

The score and fusion recomputation here reads tensors with its own `.shet`
reader and does the arithmetic straight from the formulas in the README; it
never calls `synret.pipeline` or `synret.scoring`. Only the caption
hierarchy (parse + build) is taken from the program, as an input.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
# Reference configuration (README "Defaults"); the benchmark never overrides it.
LAMBDA_FRAME = 2
LAMBDA_PATCH = 4
# Relative half-width of float32 rounding, doubled for safety.
F32_REL = 2.0 ** -23


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# File readers (own implementation of the documented formats)
# ---------------------------------------------------------------------------


def read_shet(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    require(raw[:4] == b"SHET" and raw[4] == 1 and raw[5] == 0, f"{path}: bad SHET header")
    (ndim,) = struct.unpack_from("<I", raw, 6)
    dims = struct.unpack_from(f"<{ndim}Q", raw, 10)
    count = math.prod(dims)
    off = 10 + 8 * ndim
    require(len(raw) == off + 4 * count, f"{path}: payload size does not match header")
    return np.frombuffer(raw, "<f4", count=count, offset=off).reshape(dims).astype(np.float64)


def read_checkpoint(ckpt_dir) -> tuple[dict, dict]:
    ckpt = Path(ckpt_dir)
    meta = json.loads((ckpt / "meta.json").read_text())
    return meta, {name: read_shet(ckpt / f"{name}.shet") for name in meta["tensors"]}


def read_pairs(manifest, indices) -> list[dict]:
    """Inputs of the listed manifest records; the hierarchy comes from the program."""
    from synret.conllu import parse_conllu
    from synret.hierarchy import build_hierarchy, index_hierarchy

    root = Path(manifest).parent
    records = json.loads(Path(manifest).read_text())
    out = []
    for i in indices:
        rec = records[i]
        h = build_hierarchy(parse_conllu((root / rec["text_conllu_path"]).read_text()))
        out.append({
            "pair_id": rec["pair_id"],
            "index": index_hierarchy(h),
            "text": read_shet(root / rec["text_features_path"]),
            "frames": read_shet(root / rec["frame_cls_path"]),
            "patches": read_shet(root / rec["patch_features_path"]),
        })
    return out


# ---------------------------------------------------------------------------
# Straight-line forward pass
# ---------------------------------------------------------------------------


class Reference:
    """Recomputes caption, video and pair quantities from checkpoint tensors."""

    def __init__(self, meta: dict, tensors: dict):
        self.p = tensors
        self.heads = int(meta["heads"])

    def ln(self, x, name):
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + LN_EPS) * self.p[name + ".gain"] + self.p[name + ".bias"]

    def mlp(self, x, name):
        z = x @ self.p[name + ".w1"].T + self.p[name + ".b1"]
        h = z * 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        return h @ self.p[name + ".w2"].T + self.p[name + ".b2"]

    def res_norm(self, x, mlp_name, ln_name):
        return self.ln(x + self.mlp(x, mlp_name), ln_name)

    @staticmethod
    def softmax(v):
        e = np.exp(v - np.max(v))
        return e / e.sum()

    @staticmethod
    def top_k(scores, k):
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        return sorted(order[: min(k, len(scores))])

    def caption(self, pair) -> dict:
        idx, text = pair["index"], pair["text"]
        d = text.shape[1]
        word_mean = text[1:].mean(axis=0)
        f2 = np.stack([word_mean if mu is None else text[mu] for mu in idx.mu2])
        e3p, f3p = [], []
        for i, mu in enumerate(idx.mu3):
            e = self.res_norm(text[mu], "mlp4", "ln_enhance")
            e3p.append(e)
            kids = [text[idx.mu4[j]] for j in idx.adj_children[i]]
            if kids:
                alpha = self.softmax(np.array([e @ k for k in kids]))
                gamma = sum(a * k for a, k in zip(alpha, kids))
                f3p.append(e + self.mlp(np.concatenate([e, gamma]), "fusion"))
            else:
                f3p.append(e)
        e1 = self.res_norm(text[0], "mlp1", "ln_global")
        e2 = self.res_norm(f2, "mlp2", "ln_action")
        e3 = self.res_norm(np.stack(f3p), "mlp3", "ln_entity") if f3p else np.zeros((0, d))
        m2 = self.res_norm(e2, "mlp5", "ln_weight")
        sim2 = m2 @ e1
        w2 = self.softmax(sim2)
        parent3 = list(idx.parent3)
        if parent3:
            sim3 = np.array([m2[parent3[i]] @ e3[i] for i in range(len(parent3))])
            w3 = self.softmax(sim2[parent3] + sim3)
        else:
            w3 = np.zeros(0)
        return {
            "e1": e1, "e2": e2, "e3": e3, "m2": m2, "w2": w2, "w3": w3,
            "e3p": np.stack(e3p) if e3p else np.zeros((0, d)),
            "f3p": np.stack(f3p) if f3p else np.zeros((0, d)),
            "parent3": parent3,
        }

    def video(self, pair) -> dict:
        frames = pair["frames"]
        n, d = frames.shape
        dh = d // self.heads
        p = self.p
        x0 = frames + p["pos_emb"][:n]
        q, k, v = x0 @ p["temporal.wq"].T, x0 @ p["temporal.wk"].T, x0 @ p["temporal.wv"].T
        heads_out = np.zeros((n, d))
        for h in range(self.heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(n):
                a = self.softmax(k[:, sl] @ q[i, sl] / math.sqrt(dh))
                heads_out[i, sl] = a @ v[:, sl]
        x1 = self.ln(x0 + heads_out @ p["temporal.wo"].T, "temporal.ln_attn")
        z = x1 @ p["temporal.ffn_w1"].T + p["temporal.ffn_b1"]
        ffn = (z * 0.5 * (1.0 + erf(z / math.sqrt(2.0)))) @ p["temporal.ffn_w2"].T + p["temporal.ffn_b2"]
        return {"frames": frames, "patches": pair["patches"],
                "g": self.ln(x1 + ffn, "temporal.ln_ffn")}

    def pair(self, cap: dict, vid: dict) -> dict:
        frames, patches, g = vid["frames"], vid["patches"], vid["g"]
        ev1 = self.softmax(frames @ cap["e1"]) @ frames
        psi2 = [self.top_k(list(g @ e), LAMBDA_FRAME) for e in cap["e2"]]
        ev2 = np.stack([g[sel].mean(axis=0) for sel in psi2]) if psi2 else np.zeros((0, g.shape[1]))
        psi3, ev3 = [], []
        for i, e in enumerate(cap["e3"]):
            per_frame, means = [], []
            for j in psi2[cap["parent3"][i]]:
                sel = self.top_k(list(patches[j] @ e), LAMBDA_PATCH)
                per_frame.append(sel)
                means.append(patches[j][sel].mean(axis=0))
            psi3.append(per_frame)
            ev3.append(np.mean(means, axis=0))
        ev3 = np.stack(ev3) if ev3 else np.zeros((0, frames.shape[1]))
        s1 = float(cap["e1"] @ ev1)
        s2 = float(cap["w2"] @ (cap["e2"] * ev2).sum(axis=1))
        s3 = float(cap["w3"] @ (cap["e3"] * ev3).sum(axis=1)) if len(ev3) else 0.0
        return {"ev1": ev1, "ev2": ev2, "ev3": ev3, "psi2": psi2, "psi3": psi3,
                "final": (s1 + s2 + s3) / 3.0}


def sample_cells(n: int, rng, count: int) -> list[tuple[int, int]]:
    """A few diagonal and a few off-diagonal cells of an n x n matrix."""
    cells = {(i, i) for i in rng.sample(range(n), min(count, n))}
    while len(cells) < min(2 * count, n * n):
        cells.add((rng.randrange(n), rng.randrange(n)))
    return sorted(cells)


def reference_cells(manifest, ckpt, cells) -> dict:
    ref = Reference(*read_checkpoint(ckpt))
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    caps = dict(zip(rows, map(ref.caption, read_pairs(manifest, rows))))
    vids = dict(zip(cols, map(ref.video, read_pairs(manifest, cols))))
    return {(i, j): ref.pair(caps[i], vids[j])["final"] for i, j in cells}


def check_cells(got: np.ndarray, want: dict, f32: bool, what: str) -> None:
    for (i, j), value in want.items():
        tol = F32_REL * abs(value) + 1e-12 if f32 else 1e-10
        require(abs(float(got[i, j]) - value) <= tol,
                f"{what}: score[{i},{j}] = {float(got[i, j])!r}, reference {value!r}")


# ---------------------------------------------------------------------------
# Ranks and recall
# ---------------------------------------------------------------------------


def rank_ranges(s: np.ndarray, direction: str, eps_rel: float) -> list[tuple[int, int]]:
    """Brute-force 1-based rank of every query's true item, as a range.

    Only strictly higher scores push the true item down. A competitor closer
    to the true item's score than eps_rel of its size may sit on either side
    of it before rounding, so it widens the range; with eps_rel = 0 every
    range is a single rank.
    """
    m = s if direction == "t2v" else s.T
    n = m.shape[0]
    ranges = []
    for i in range(n):
        above = near = 0
        for j in range(n):
            if j == i:
                continue
            gap = m[i, j] - m[i, i]
            eps = eps_rel * max(abs(m[i, j]), abs(m[i, i]))
            if gap > eps:
                above += 1
            elif eps > 0 and gap > -eps:
                near += 1
        ranges.append((1 + above, 1 + above + near))
    return ranges


def check_report(report: dict, s: np.ndarray, f32: bool, what: str) -> None:
    """The report's R@K values against brute-force ranks of the score matrix."""
    n = s.shape[0]
    require(report["pairs"] == n, f"{what}: report counts {report['pairs']} pairs, matrix has {n}")
    for direction in ("t2v", "v2t"):
        ranges = rank_ranges(s, direction, 2 * F32_REL if f32 else 0.0)
        for k in (1, 5, 10):
            sure = sum(hi <= k for _, hi in ranges)
            maybe = sum(lo <= k for lo, _ in ranges)
            got = report[direction][f"r{k}"] * n / 100.0
            require(sure - 1e-9 <= got <= maybe + 1e-9,
                    f"{what}: {direction} R@{k} counts {got} hits, brute force gives {sure}..{maybe}")


# ---------------------------------------------------------------------------
# Fused features written by `fuse`
# ---------------------------------------------------------------------------


def check_fuse(manifest, ckpt, fuse_dir, indices, what: str) -> None:
    ref = Reference(*read_checkpoint(ckpt))
    index = json.loads((Path(fuse_dir) / "index.json").read_text())
    for pair in read_pairs(manifest, indices):
        cap, vid = ref.caption(pair), ref.video(pair)
        pf = ref.pair(cap, vid)
        want = {"e1": cap["e1"], "e2": cap["e2"], "e3": cap["e3"], "e3p": cap["e3p"],
                "f3p": cap["f3p"], "ev1": pf["ev1"], "g": vid["g"], "ev2": pf["ev2"],
                "ev3": pf["ev3"]}
        entry = index[pair["pair_id"]]
        for name, value in want.items():
            got = read_shet(Path(fuse_dir) / entry["tensors"][name])
            require(got.shape == value.shape, f"{what}: {pair['pair_id']}.{name} has shape {got.shape}")
            require(bool(np.all(np.abs(got - value) <= F32_REL * np.abs(value) + 1e-10)),
                    f"{what}: {pair['pair_id']}.{name} differs from the reference")
        require(entry["frame_selection"] == pf["psi2"], f"{what}: {pair['pair_id']} frame selection")
        require(entry["patch_selection"] == pf["psi3"], f"{what}: {pair['pair_id']} patch selection")


# ---------------------------------------------------------------------------
# Finite-difference probe of the analytic gradient
# ---------------------------------------------------------------------------

PROBE_TENSORS = ("mlp1.w1", "fusion.w1", "mlp5.w2", "temporal.wv", "pos_emb")


def gradient_probe(bundles, params, cfg) -> float:
    """Central differences on the largest analytic coordinate of a few tensors.

    The step stays well under the batch's smallest top-k selection margin so
    that no selection flips while probing. Returns the worst relative error.
    """
    train_mod = sys.modules["synret.train"]
    margin = train_mod.selection_margins(bundles, params, cfg)
    h = min(1e-5, margin / 100.0)
    _, grads, _ = train_mod.batch_loss_and_grads(bundles, params, cfg)
    analytic = dict(grads.named_tensors())
    worst = 0.0
    for name, tensor in params.named_tensors():
        if name not in PROBE_TENSORS:
            continue
        flat_g = analytic[name].reshape(-1)
        k = int(np.argmax(np.abs(flat_g)))
        flat_p = tensor.reshape(-1)
        orig = flat_p[k]
        flat_p[k] = orig + h
        plus = train_mod.batch_loss(bundles, params, cfg)
        flat_p[k] = orig - h
        minus = train_mod.batch_loss(bundles, params, cfg)
        flat_p[k] = orig
        numeric = (plus - minus) / (2.0 * h)
        rel = abs(numeric - flat_g[k]) / max(abs(numeric), abs(flat_g[k]))
        require(rel < 1e-4, f"gradient probe: {name}[{k}] analytic {float(flat_g[k])!r}, "
                            f"numeric {numeric!r} (h={h:.1e}, margin={margin:.1e})")
        worst = max(worst, rel)
    return worst
