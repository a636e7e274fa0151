"""Learnable tensors: container, seeded init, checkpoint I/O, Adam updates.

All math runs in float64; checkpoints are stored as float32 tensors and
widened on load. Linear weights use the (out, in) layout so y = W @ x.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import config_from_dict
from .errors import DataError, UsageError
from .rng import SplitMix64
from .tensor_store import read_tensor, read_tensor_shape, write_set

CHECKPOINT_VERSION = 1


@dataclass
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class LayerNormParams:
    gain: np.ndarray
    bias: np.ndarray


@dataclass
class TransformerParams:
    # attention projections are bias-free; a key bias would be provably
    # inert under row softmax and would defeat finite-difference checks
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray
    ln_attn: LayerNormParams
    ln_ffn: LayerNormParams


@dataclass
class ModelParams:
    """Every tensor is a view of one float64 buffer, `flat`, laid out in
    `named_tensors()` order; `zeros_like` sets it (it is not a field), and
    tensors are written in place, never rebound. `Adam.grads` is the same
    tree with other leaves and no `flat`."""

    d: int
    heads: int
    max_frames: int
    tau: float  # scoring temperature; carried with the checkpoint, not learned
    mlp1: MlpParams  # whole-node projection
    mlp2: MlpParams  # action-node projection
    mlp3: MlpParams  # entity-node projection
    mlp4: MlpParams  # pre-enhancement entity projection
    mlp5: MlpParams  # action weighting projection
    fusion: MlpParams  # 2d -> d adjective fusion
    ln_global: LayerNormParams
    ln_action: LayerNormParams
    ln_entity: LayerNormParams
    ln_enhance: LayerNormParams
    ln_weight: LayerNormParams
    temporal: TransformerParams
    pos_emb: np.ndarray  # (max_frames, d)

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Fixed-order list; the order defines the checkpoint and `flat` layout."""
        out: list[tuple[str, np.ndarray]] = []
        _emit_tensors("", self, out)
        return out

    def copy(self) -> "ModelParams":
        fresh = zeros_like(self)
        fresh.flat[...] = self.flat
        return fresh


def _emit_tensors(prefix: str, obj, out: list) -> None:
    # a module-level helper: a nested recursive closure would form a reference
    # cycle that keeps every listed tensor alive until the next GC pass
    for f in fields(obj):
        value = getattr(obj, f.name)
        name = f"{prefix}.{f.name}" if prefix else f.name
        if isinstance(value, (np.ndarray, _Moments)):
            out.append((name, value))
        elif isinstance(value, (MlpParams, LayerNormParams, TransformerParams)):
            _emit_tensors(name, value, out)


def zeros_like(p: "ModelParams | None" = None, *, d: int | None = None,
               heads: int = 8, max_frames: int = 12, tau: float = 4.0) -> ModelParams:
    """All-zero parameter set; doubles as a whole gradient set."""
    if p is not None:
        d, heads, max_frames, tau = p.d, p.heads, p.max_frames, p.tau
    assert d is not None
    # 5 d->d MLPs, the 2d->d fusion MLP, 7 LayerNorms, the temporal layer, pos_emb
    flat = np.zeros(25 * d * d + (31 + max_frames) * d)
    out = _tree(lambda lo, hi, shape: flat[lo:hi].reshape(shape), d, heads, max_frames, tau)
    out.flat = flat
    return out


def _tree(leaf, d: int, heads: int, max_frames: int, tau: float) -> ModelParams:
    """The model's tree with each tensor made by `leaf(lo, hi, shape)` from its
    place [lo, hi) in the `flat` layout."""
    at = 0

    # tensors are made in call order, which is field order and so
    # named_tensors() order; the leaf classes take their fields by position,
    # as keyword calls added about 3 of 30 us to a d=16 call
    def t(*shape: int):
        nonlocal at
        lo, at = at, at + math.prod(shape)
        return leaf(lo, at, shape)

    def mlp(d_out: int, d_hidden: int, d_in: int) -> MlpParams:
        return MlpParams(t(d_hidden, d_in), t(d_hidden), t(d_out, d_hidden), t(d_out))

    def ln(n: int) -> LayerNormParams:
        return LayerNormParams(t(n), t(n))

    return ModelParams(
        d=d,
        heads=heads,
        max_frames=max_frames,
        tau=tau,
        mlp1=mlp(d, d, d),
        mlp2=mlp(d, d, d),
        mlp3=mlp(d, d, d),
        mlp4=mlp(d, d, d),
        mlp5=mlp(d, d, d),
        fusion=mlp(d, d, 2 * d),
        ln_global=ln(d),
        ln_action=ln(d),
        ln_entity=ln(d),
        ln_enhance=ln(d),
        ln_weight=ln(d),
        temporal=TransformerParams(
            wq=t(d, d),
            wk=t(d, d),
            wv=t(d, d),
            wo=t(d, d),
            ffn_w1=t(4 * d, d), ffn_b1=t(4 * d),
            ffn_w2=t(d, 4 * d), ffn_b2=t(d),
            ln_attn=ln(d),
            ln_ffn=ln(d),
        ),
        pos_emb=t(max_frames, d),
    )


def init_params(seed: int, d: int, *, heads: int = 8, max_frames: int = 12,
                tau: float = 4.0) -> ModelParams:
    """Seeded init: weights ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases 0,
    LayerNorm gain 1 / bias 0, positional embeddings ~ N(0, 0.02^2)."""
    if d % heads != 0:
        raise DataError(f"d={d} must be divisible by heads={heads}")
    p = zeros_like(d=d, heads=heads, max_frames=max_frames, tau=tau)
    rng = SplitMix64(seed)
    for name, tensor in p.named_tensors():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            tensor[...] = 1.0
        elif name == "pos_emb":
            tensor[...] = rng.normal(0.02, tensor.shape)
        elif tensor.ndim == 2:
            bound = 1.0 / np.sqrt(tensor.shape[1])
            tensor[...] = rng.uniform(-bound, bound, tensor.shape)
        # 1-d tensors other than gains are biases and stay zero
    return p


# ---------------------------------------------------------------------------
# Checkpoints: one SHET tensor per named parameter plus a JSON manifest
# ---------------------------------------------------------------------------


def checkpoint_files(directory, p: ModelParams) -> list[Path]:
    """`meta.json`, then `<name>.shet` per tensor in `named_tensors()` order:
    the files a checkpoint of `p` has in `directory`, its `texts` aside."""
    names = ["meta.json", *(f"{name}.shet" for name, _ in p.named_tensors())]
    return [Path(directory, name) for name in names]


def save_checkpoint(p: ModelParams, out_dir, *, seed: int,
                    texts: dict[str, str] | None = None) -> None:
    """The tensors, `meta.json`, then `texts` (say `train`'s loss log), as one
    `write_set`: a non-finite tensor leaves an old checkpoint as it was, and a
    save failing part-way leaves one that `load_checkpoint` refuses."""
    tensors = p.named_tensors()
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "d": p.d,
        "heads": p.heads,
        "max_frames": p.max_frames,
        "tau": p.tau,
        "seed": seed,
        "tensors": [name for name, _ in tensors],
    }
    write_set(out_dir, {f"{name}.shet": tensor for name, tensor in tensors},
              {"meta.json": json.dumps(meta, indent=2, sort_keys=True) + "\n", **(texts or {})})


def load_checkpoint(ckpt_dir) -> ModelParams:
    ckpt = Path(ckpt_dir)
    meta_path = ckpt / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise DataError(f"cannot read checkpoint metadata {meta_path}: {e}") from None
    if not isinstance(meta, dict):
        raise DataError(f"{meta_path}: checkpoint metadata must be a JSON object")
    version = meta.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # not True, not 1.0
        raise DataError(f"{meta_path}: unsupported checkpoint version {version!r}")
    try:  # the model's shape and temperature are checked as a config's are
        cfg = config_from_dict({key: meta[key] for key in ("d", "heads", "max_frames", "tau")})
    except KeyError as e:
        raise DataError(f"{meta_path}: missing field {e}") from None
    except UsageError as e:
        raise DataError(f"{meta_path}: {e}") from None
    # no model is allocated at a size the tensors on disk do not have
    for name, shape in (("mlp1.w1", (cfg.d, cfg.d)), ("pos_emb", (cfg.max_frames, cfg.d))):
        if read_tensor_shape(ckpt / f"{name}.shet") != shape:
            raise DataError(f"{meta_path}: d={cfg.d}, max_frames={cfg.max_frames} "
                            f"do not match {name}.shet")
    p = zeros_like(d=cfg.d, heads=cfg.heads, max_frames=cfg.max_frames, tau=float(cfg.tau))
    tensors = p.named_tensors()
    if meta.get("tensors") != [name for name, _ in tensors]:
        raise DataError(f"{meta_path}: tensor list does not match this model layout")
    for (name, view), path in zip(tensors, checkpoint_files(ckpt, p)[1:]):
        value = read_tensor(path)
        if value.shape != view.shape:
            raise DataError(f"tensor {name}: shape {value.shape} != expected {view.shape}")
        view[...] = value  # widened through the view into `flat`
    return p


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BLOCK = 16384  # elements per slice of Adam's passes: 128 KB of f64 per array, inside L2


class _Moments:
    """One tensor's slices of Adam's `m` and `v`, which the last update left
    multiplied by beta1 and beta2: `+=` adds in that tensor's gradient for
    the step, `ADAM_BLOCK` elements (as set when it is made) at a time. It
    holds no reference to its `Adam`, so the moments are freed as soon as the
    optimizer is dropped."""

    __slots__ = ("blocks", "shape", "rate1", "rate2", "fed")

    def __init__(self, m: np.ndarray, v: np.ndarray, shape: tuple, beta1: float, beta2: float):
        # the slices are taken once: taken per call, they were a fifth of a d=16 intake
        self.blocks = [(m[lo:lo + ADAM_BLOCK], v[lo:lo + ADAM_BLOCK], slice(lo, lo + ADAM_BLOCK))
                       for lo in range(0, m.size, ADAM_BLOCK)]
        self.shape, self.rate1, self.rate2 = shape, 1.0 - beta1, 1.0 - beta2
        self.fed = False

    def __iadd__(self, g: np.ndarray) -> "_Moments":
        if self.fed:
            raise RuntimeError("a tensor took a second gradient before Adam's update")
        if g.shape != self.shape:
            raise ValueError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        g = g.reshape(-1)
        for m, v, block in self.blocks:
            gb = g[block]
            m += self.rate1 * gb
            v += self.rate2 * gb * gb
        self.fed = True
        return self


class Adam:
    """Adam over the `flat` buffers, holding no gradient set. `grads` is the
    model's tree with a `_Moments` at each leaf: a backward adds each
    tensor's gradient into it once per step, straight into that tensor's
    slices of `m` and `v`. `update` moves the parameters, then multiplies the
    moments by beta1 and beta2 for the next step, so that an intake is two
    adds (a d=16 step makes 47). Each element of `m` still sees `m *= beta1;
    m += (1 - beta1) * g` in that order, as in a whole-array update, and `v`
    likewise. Both passes run `ADAM_BLOCK` elements at a time, so the arrays
    stay in cache between their operations."""

    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        m = self._m = np.zeros_like(params.flat)
        v = self._v = np.zeros_like(params.flat)
        self.grads = _tree(lambda lo, hi, shape: _Moments(m[lo:hi], v[lo:hi], shape, beta1, beta2),
                           params.d, params.heads, params.max_frames, params.tau)
        self._leaves = [leaf for _, leaf in self.grads.named_tensors()]

    def update(self, params: ModelParams) -> None:
        """One step from the gradients taken since the last update. Every
        tensor must have taken one; if not, this raises and leaves `params`
        and the moments as they were."""
        if not all(leaf.fed for leaf in self._leaves):
            unfed = [name for name, leaf in self.grads.named_tensors() if not leaf.fed]
            raise RuntimeError(f"no gradient since the last update for {', '.join(unfed)}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for lo in range(0, self._m.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            p, m, v = params.flat[block], self._m[block], self._v[block]
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            m *= self.beta1
            v *= self.beta2
        for leaf in self._leaves:
            leaf.fed = False

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        """One step from a whole gradient set."""
        for leaf, (_, g) in zip(self._leaves, grads.named_tensors()):
            leaf += g
        self.update(params)
