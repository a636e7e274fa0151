"""Parameterized numerical blocks with paired forward/backward passes.

Everything here is float64 and shape-light: vectors are (d,), stacked node
features are (n, d), and row-wise blocks take any number of stacked rows
(their backwards take them as (n, d)). Each forward returns its output and a
cache consumed by the matching backward. A backward returns the gradient
w.r.t. its input and adds each parameter gradient, with exactly one `+=` per
leaf, into any parameter-shaped tree whose leaves take `+=` once per
backward: a zero gradient set (`params.zeros_like`) or `Adam.grads`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .params import LayerNormParams, MlpParams, TransformerParams

LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Activations and softmax
# ---------------------------------------------------------------------------


def _gelu_with_cdf(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-erf GELU, z * Phi(z), and Phi(z)."""
    from scipy.special import erf  # here: a command that computes no GELU never loads scipy
    cdf = 0.5 * (1.0 + erf(z * _INV_SQRT2))
    return z * cdf, cdf


def _gelu_grad(z: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    return cdf + z * _INV_SQRT_2PI * np.exp(-0.5 * z * z)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(y: np.ndarray, ybar: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient through softmax given its output y and upstream ybar."""
    inner = (y * ybar).sum(axis=axis, keepdims=True)
    return y * (ybar - inner)


def segment_softmax(z: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """softmax over each of n segments of z; owner[i] is the segment of z[i]."""
    top = np.full(n, -np.inf)
    np.maximum.at(top, owner, z)
    e = np.exp(z - top[owner])
    return e / np.bincount(owner, weights=e, minlength=n)[owner]


def segment_softmax_vjp(y: np.ndarray, ybar: np.ndarray, owner: np.ndarray,
                        n: int) -> np.ndarray:
    """softmax_vjp applied to each segment of stacked outputs."""
    inner = np.bincount(owner, weights=y * ybar, minlength=n)
    return y * (ybar - inner[owner])


# ---------------------------------------------------------------------------
# LayerNorm (population variance), applied along the last axis
# ---------------------------------------------------------------------------


@dataclass
class LayerNormCache:
    xhat: np.ndarray
    inv_std: np.ndarray


def layer_norm(x: np.ndarray, ln: LayerNormParams, eps: float = LN_EPS):
    # sum / n is `mean` bit for bit, without its per-call overhead
    n = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / n
    centered = x - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * ln.gain + ln.bias, LayerNormCache(xhat=xhat, inv_std=inv_std)


def layer_norm_backward(ybar: np.ndarray, cache: LayerNormCache,
                        ln: LayerNormParams, ln_grad: LayerNormParams) -> np.ndarray:
    xhat, inv_std = cache.xhat, cache.inv_std
    ln_grad.gain += (ybar * xhat).sum(axis=0)
    ln_grad.bias += ybar.sum(axis=0)
    dxhat = ybar * ln.gain
    n = xhat.shape[-1]
    m1 = dxhat.sum(axis=-1, keepdims=True) / n
    m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / n
    return inv_std * (dxhat - m1 - xhat * m2)


# ---------------------------------------------------------------------------
# Two-layer GELU MLPs (d->d and 2d->d share the same code path)
# ---------------------------------------------------------------------------


@dataclass
class MlpCache:
    x: np.ndarray
    z: np.ndarray
    h: np.ndarray
    cdf: np.ndarray


def mlp(x: np.ndarray, mp: MlpParams) -> tuple[np.ndarray, MlpCache]:
    z = x @ mp.w1.T + mp.b1
    h, cdf = _gelu_with_cdf(z)
    return h @ mp.w2.T + mp.b2, MlpCache(x=x, z=z, h=h, cdf=cdf)


def mlp_backward(ybar: np.ndarray, cache: MlpCache, mp: MlpParams,
                 mp_grad: MlpParams) -> np.ndarray:
    mp_grad.w2 += ybar.T @ cache.h
    mp_grad.b2 += ybar.sum(axis=0)
    zbar = (ybar @ mp.w2) * _gelu_grad(cache.z, cache.cdf)
    mp_grad.w1 += zbar.T @ cache.x
    mp_grad.b1 += zbar.sum(axis=0)
    return zbar @ mp.w1


# ---------------------------------------------------------------------------
# Residual projection: y = LN(x + MLP(x)) - the recurring text-side block
# ---------------------------------------------------------------------------


@dataclass
class ResNormCache:
    mlp_cache: MlpCache
    ln_cache: LayerNormCache


def res_norm(x: np.ndarray, mp: MlpParams, ln: LayerNormParams):
    u, mlp_cache = mlp(x, mp)
    y, ln_cache = layer_norm(x + u, ln)
    return y, ResNormCache(mlp_cache=mlp_cache, ln_cache=ln_cache)


def res_norm_backward(ybar: np.ndarray, cache: ResNormCache, mp: MlpParams,
                      ln: LayerNormParams, mp_grad: MlpParams,
                      ln_grad: LayerNormParams) -> np.ndarray:
    ubar = layer_norm_backward(ybar, cache.ln_cache, ln, ln_grad)
    return ubar + mlp_backward(ubar, cache.mlp_cache, mp, mp_grad)


# ---------------------------------------------------------------------------
# Single post-norm transformer encoder layer over frame features
# ---------------------------------------------------------------------------


@dataclass
class TransformerCache:
    positions: np.ndarray         # (R,) position of each row inside its video
    x0: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    group_rows: list[np.ndarray]  # per group of equal-length videos: (B_g, n) row indices
    attn: list[np.ndarray]        # per group: (B_g, heads, n, n)
    heads_out: np.ndarray         # (R, d), concatenated head outputs
    ln_attn_cache: LayerNormCache
    ffn: ResNormCache             # x2 = LN(x1 + FFN(x1)); its MLP's x is x1


def groups(keys: list) -> list[list[int]]:
    """The positions of each distinct key, keys in order of first appearance."""
    return [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-2, -3)  # (..., heads, N, dh)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *lead, heads, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, heads * dh)


def transformer_encode(frames: np.ndarray, tp: TransformerParams, pos_emb: np.ndarray,
                       heads: int, lengths: list[int] | None = None,
                       ) -> tuple[np.ndarray, TransformerCache]:
    """One post-norm encoder layer over the stacked frame rows of one or more
    videos; `lengths` gives each video's frame count (default: one video).
    Attention stays inside each video and runs once per group of
    equal-length videos; the projections, LayerNorms and FFN run once over
    all rows."""
    rows, d = frames.shape
    lengths = [rows] if lengths is None else list(lengths)
    if max(lengths) > pos_emb.shape[0]:
        raise DataError(f"{max(lengths)} frames exceed positional table of {pos_emb.shape[0]}")
    scale = 1.0 / np.sqrt(d // heads)
    first = np.cumsum(lengths) - lengths
    positions = np.arange(rows) - np.repeat(first, lengths)
    x0 = frames + pos_emb[positions]

    q = x0 @ tp.wq.T
    k = x0 @ tp.wk.T
    v = x0 @ tp.wv.T
    group_rows = [first[at, None] + np.arange(lengths[at[0]]) for at in groups(lengths)]
    attn = [softmax(np.einsum("bhid,bhjd->bhij", _split_heads(q[r], heads),
                              _split_heads(k[r], heads)) * scale) for r in group_rows]
    heads_out = np.empty((rows, d))
    for r, a in zip(group_rows, attn):
        heads_out[r] = _merge_heads(np.einsum("bhij,bhjd->bhid", a, _split_heads(v[r], heads)))
    attn_out = heads_out @ tp.wo.T

    x1, ln_attn_cache = layer_norm(x0 + attn_out, tp.ln_attn)
    ffn_mp = MlpParams(w1=tp.ffn_w1, b1=tp.ffn_b1, w2=tp.ffn_w2, b2=tp.ffn_b2)
    x2, ffn = res_norm(x1, ffn_mp, tp.ln_ffn)

    cache = TransformerCache(
        positions=positions, x0=x0, q=q, k=k, v=v, group_rows=group_rows,
        attn=attn, heads_out=heads_out, ln_attn_cache=ln_attn_cache, ffn=ffn,
    )
    return x2, cache


def transformer_backward(ybar: np.ndarray, cache: TransformerCache,
                         tp: TransformerParams, tp_grad: TransformerParams,
                         pos_grad: np.ndarray, heads: int) -> np.ndarray:
    """Accumulates into tp_grad/pos_grad; returns gradient w.r.t. frames."""
    rows, d = ybar.shape
    scale = 1.0 / np.sqrt(d // heads)

    ffn_mp = MlpParams(w1=tp.ffn_w1, b1=tp.ffn_b1, w2=tp.ffn_w2, b2=tp.ffn_b2)
    ffn_mp_grad = MlpParams(w1=tp_grad.ffn_w1, b1=tp_grad.ffn_b1,
                            w2=tp_grad.ffn_w2, b2=tp_grad.ffn_b2)
    x1bar = res_norm_backward(ybar, cache.ffn, ffn_mp, tp.ln_ffn, ffn_mp_grad, tp_grad.ln_ffn)

    wbar = layer_norm_backward(x1bar, cache.ln_attn_cache, tp.ln_attn, tp_grad.ln_attn)
    x0bar = wbar.copy()
    attn_out_bar = wbar

    tp_grad.wo += attn_out_bar.T @ cache.heads_out
    heads_out_bar = attn_out_bar @ tp.wo

    qbar, kbar, vbar = np.empty((rows, d)), np.empty((rows, d)), np.empty((rows, d))
    for r, a in zip(cache.group_rows, cache.attn):
        ho_bar = _split_heads(heads_out_bar[r], heads)
        qh, kh = _split_heads(cache.q[r], heads), _split_heads(cache.k[r], heads)
        attn_bar = np.einsum("bhid,bhjd->bhij", ho_bar, _split_heads(cache.v[r], heads))
        vbar[r] = _merge_heads(np.einsum("bhij,bhid->bhjd", a, ho_bar))
        sbar = softmax_vjp(a, attn_bar) * scale
        qbar[r] = _merge_heads(np.einsum("bhij,bhjd->bhid", sbar, kh))
        kbar[r] = _merge_heads(np.einsum("bhij,bhid->bhjd", sbar, qh))

    tp_grad.wq += qbar.T @ cache.x0
    tp_grad.wk += kbar.T @ cache.x0
    tp_grad.wv += vbar.T @ cache.x0
    x0bar += qbar @ tp.wq + kbar @ tp.wk + vbar @ tp.wv

    pos_bar = np.zeros(pos_grad.shape)
    np.add.at(pos_bar, cache.positions, x0bar)
    pos_grad += pos_bar
    return x0bar
