"""Parameterized numerical blocks with paired forward/backward passes.

Everything here is float64 and shape-light: vectors are (d,), stacked node
features are (n, d), and row-wise blocks take any number of stacked rows. Each forward returns a cache consumed by the matching
backward; backwards accumulate parameter gradients into a ModelParams-shaped
container and return the gradient w.r.t. their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DataError
from .params import LayerNormParams, MlpParams, TransformerParams

LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Activations and softmax
# ---------------------------------------------------------------------------


def gelu(z: np.ndarray) -> np.ndarray:
    """Exact-erf GELU: z * Phi(z)."""
    return z * 0.5 * (1.0 + erf(z * _INV_SQRT2))


def _gelu_with_cdf(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


# ---------------------------------------------------------------------------
# LayerNorm (population variance), applied along the last axis
# ---------------------------------------------------------------------------


@dataclass
class LayerNormCache:
    xhat: np.ndarray
    inv_std: np.ndarray


def layer_norm(x: np.ndarray, ln: LayerNormParams, eps: float = LN_EPS):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * ln.gain + ln.bias, LayerNormCache(xhat=xhat, inv_std=inv_std)


def layer_norm_backward(ybar: np.ndarray, cache: LayerNormCache,
                        ln: LayerNormParams, ln_grad: LayerNormParams) -> np.ndarray:
    xhat, inv_std = cache.xhat, cache.inv_std
    if ybar.ndim == 1:
        ln_grad.gain += ybar * xhat
        ln_grad.bias += ybar
    else:
        ln_grad.gain += (ybar * xhat).sum(axis=0)
        ln_grad.bias += ybar.sum(axis=0)
    dxhat = ybar * ln.gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
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
    y2 = np.atleast_2d(ybar)
    h2 = np.atleast_2d(cache.h)
    x2 = np.atleast_2d(cache.x)
    mp_grad.w2 += y2.T @ h2
    mp_grad.b2 += y2.sum(axis=0)
    hbar = ybar @ mp.w2
    zbar = hbar * _gelu_grad(cache.z, cache.cdf)
    z2 = np.atleast_2d(zbar)
    mp_grad.w1 += z2.T @ x2
    mp_grad.b1 += z2.sum(axis=0)
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
# Query-key attention pooling over raw inner products (no projections)
# ---------------------------------------------------------------------------


@dataclass
class AttendCache:
    q: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    weights: np.ndarray


def dot_softmax_attend(q: np.ndarray, keys: np.ndarray, values: np.ndarray):
    """weights = softmax(keys @ q); pooled = weights @ values."""
    if keys.shape[0] == 0:
        raise DataError("dot_softmax_attend: empty key set")
    weights = softmax(keys @ q)
    pooled = weights @ values
    return weights, pooled, AttendCache(q=q, keys=keys, values=values, weights=weights)


def dot_softmax_attend_backward(pooled_bar: np.ndarray, cache: AttendCache):
    """Returns (qbar, keys_bar, values_bar)."""
    a = cache.weights
    abar = cache.values @ pooled_bar
    vbar = np.outer(a, pooled_bar)
    sbar = softmax_vjp(a, abar)
    qbar = cache.keys.T @ sbar
    kbar = np.outer(sbar, cache.q)
    return qbar, kbar, vbar


# ---------------------------------------------------------------------------
# Single post-norm transformer encoder layer over frame features
# ---------------------------------------------------------------------------


@dataclass
class TransformerCache:
    lengths: list[int]     # frame count of each stacked video
    positions: np.ndarray  # (R,) position of each row inside its video
    x0: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: list[np.ndarray]  # per video: (heads, N_v, N_v)
    heads_out: np.ndarray   # (R, d), concatenated head outputs
    ln_attn_cache: LayerNormCache
    x1: np.ndarray
    ffn_cache: MlpCache
    ln_ffn_cache: LayerNormCache


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, heads, d // heads).transpose(1, 0, 2)  # (heads, N, dh)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    heads, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, heads * dh)


def transformer_encode(frames: np.ndarray, tp: TransformerParams, pos_emb: np.ndarray,
                       heads: int, lengths: list[int] | None = None,
                       ) -> tuple[np.ndarray, TransformerCache]:
    """One post-norm encoder layer over the stacked frame rows of one or more
    videos; `lengths` gives each video's frame count (default: one video).
    Attention stays inside each video; the projections, LayerNorms and FFN
    run once over all rows."""
    rows, d = frames.shape
    lengths = [rows] if lengths is None else list(lengths)
    if max(lengths) > pos_emb.shape[0]:
        raise DataError(f"{max(lengths)} frames exceed positional table of {pos_emb.shape[0]}")
    scale = 1.0 / np.sqrt(d // heads)
    positions = np.concatenate([np.arange(n) for n in lengths])
    x0 = frames + pos_emb[positions]

    q = x0 @ tp.wq.T
    k = x0 @ tp.wk.T
    v = x0 @ tp.wv.T
    attn = []
    heads_out = np.empty((rows, d))
    start = 0
    for n in lengths:
        sl = slice(start, start + n)
        start += n
        a = softmax(np.einsum("hid,hjd->hij", _split_heads(q[sl], heads),
                              _split_heads(k[sl], heads)) * scale, axis=-1)
        heads_out[sl] = _merge_heads(np.einsum("hij,hjd->hid", a, _split_heads(v[sl], heads)))
        attn.append(a)
    attn_out = heads_out @ tp.wo.T

    x1, ln_attn_cache = layer_norm(x0 + attn_out, tp.ln_attn)
    ffn_mp = MlpParams(w1=tp.ffn_w1, b1=tp.ffn_b1, w2=tp.ffn_w2, b2=tp.ffn_b2)
    ffn_out, ffn_cache = mlp(x1, ffn_mp)
    x2, ln_ffn_cache = layer_norm(x1 + ffn_out, tp.ln_ffn)

    cache = TransformerCache(
        lengths=lengths, positions=positions, x0=x0, q=q, k=k, v=v, attn=attn,
        heads_out=heads_out, ln_attn_cache=ln_attn_cache, x1=x1, ffn_cache=ffn_cache,
        ln_ffn_cache=ln_ffn_cache,
    )
    return x2, cache


def transformer_backward(ybar: np.ndarray, cache: TransformerCache,
                         tp: TransformerParams, tp_grad: TransformerParams,
                         pos_grad: np.ndarray, heads: int) -> np.ndarray:
    """Accumulates into tp_grad/pos_grad; returns gradient w.r.t. frames."""
    rows, d = ybar.shape
    scale = 1.0 / np.sqrt(d // heads)

    ubar = layer_norm_backward(ybar, cache.ln_ffn_cache, tp.ln_ffn, tp_grad.ln_ffn)
    ffn_mp = MlpParams(w1=tp.ffn_w1, b1=tp.ffn_b1, w2=tp.ffn_w2, b2=tp.ffn_b2)
    ffn_mp_grad = MlpParams(w1=tp_grad.ffn_w1, b1=tp_grad.ffn_b1,
                            w2=tp_grad.ffn_w2, b2=tp_grad.ffn_b2)
    x1bar = ubar + mlp_backward(ubar, cache.ffn_cache, ffn_mp, ffn_mp_grad)

    wbar = layer_norm_backward(x1bar, cache.ln_attn_cache, tp.ln_attn, tp_grad.ln_attn)
    x0bar = wbar.copy()
    attn_out_bar = wbar

    tp_grad.wo += attn_out_bar.T @ cache.heads_out
    heads_out_bar = attn_out_bar @ tp.wo

    qbar, kbar, vbar = np.empty((rows, d)), np.empty((rows, d)), np.empty((rows, d))
    start = 0
    for n, a in zip(cache.lengths, cache.attn):
        sl = slice(start, start + n)
        start += n
        ho_bar = _split_heads(heads_out_bar[sl], heads)
        qh, kh = _split_heads(cache.q[sl], heads), _split_heads(cache.k[sl], heads)
        attn_bar = np.einsum("hid,hjd->hij", ho_bar, _split_heads(cache.v[sl], heads))
        vbar[sl] = _merge_heads(np.einsum("hij,hid->hjd", a, ho_bar))
        sbar = softmax_vjp(a, attn_bar, axis=-1) * scale
        qbar[sl] = _merge_heads(np.einsum("hij,hjd->hid", sbar, kh))
        kbar[sl] = _merge_heads(np.einsum("hij,hid->hjd", sbar, qh))

    tp_grad.wq += qbar.T @ cache.x0
    tp_grad.wk += kbar.T @ cache.x0
    tp_grad.wv += vbar.T @ cache.x0
    x0bar += qbar @ tp.wq + kbar @ tp.wk + vbar @ tp.wv

    np.add.at(pos_grad, cache.positions, x0bar)
    return x0bar
