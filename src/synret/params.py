"""Learnable tensors: container, seeded init, checkpoint I/O, Adam updates.

All math runs in float64; checkpoints are stored as float32 tensors and
widened on load. Linear weights use the (out, in) layout so y = W @ x.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import config_from_dict
from .errors import DataError, NumericalError, UsageError
from .rng import SplitMix64
from .tensor_store import read_tensor, read_tensor_shape, write_file, write_tensor

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
    tensors are written in place, never rebound."""

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
        if isinstance(value, np.ndarray):
            out.append((name, value))
        elif isinstance(value, (MlpParams, LayerNormParams, TransformerParams)):
            _emit_tensors(name, value, out)


def zeros_like(p: "ModelParams | None" = None, *, d: int | None = None,
               heads: int = 8, max_frames: int = 12, tau: float = 4.0) -> ModelParams:
    """All-zero parameter set; doubles as the gradient accumulator layout."""
    if p is not None:
        d, heads, max_frames, tau = p.d, p.heads, p.max_frames, p.tau
    assert d is not None
    # 5 d->d MLPs, the 2d->d fusion MLP, 7 LayerNorms, the temporal layer, pos_emb
    flat = np.zeros(25 * d * d + (31 + max_frames) * d)
    at = 0

    # views are taken in call order, which is field order and so named_tensors()
    # order; the leaf classes take their fields by position, as keyword calls
    # added about 3 of 30 us to a d=16 call, made once per training step
    def vec(n: int) -> np.ndarray:
        nonlocal at
        at += n
        return flat[at - n:at]

    def mat(rows: int, cols: int) -> np.ndarray:
        nonlocal at
        at += rows * cols
        return flat[at - rows * cols:at].reshape(rows, cols)

    def mlp(d_out: int, d_hidden: int, d_in: int) -> MlpParams:
        return MlpParams(mat(d_hidden, d_in), vec(d_hidden), mat(d_out, d_hidden), vec(d_out))

    def ln(n: int) -> LayerNormParams:
        return LayerNormParams(vec(n), vec(n))

    out = ModelParams(
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
            wq=mat(d, d),
            wk=mat(d, d),
            wv=mat(d, d),
            wo=mat(d, d),
            ffn_w1=mat(4 * d, d), ffn_b1=vec(4 * d),
            ffn_w2=mat(d, 4 * d), ffn_b2=vec(d),
            ln_attn=ln(d),
            ln_ffn=ln(d),
        ),
        pos_emb=mat(max_frames, d),
    )
    assert at == flat.size
    out.flat = flat
    return out


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


def save_checkpoint(p: ModelParams, out_dir, *, seed: int) -> None:
    """Every tensor is checked before the directory is touched, so a
    non-finite one leaves an old checkpoint as it was. `meta.json` goes
    first and comes back last: a save that fails part-way leaves a
    directory that `load_checkpoint` refuses, not a mix of two checkpoints."""
    out = Path(out_dir)
    tensors = p.named_tensors()
    for name, tensor in tensors:
        with np.errstate(over="ignore"):  # an overflow to inf is reported below
            finite = np.isfinite(tensor.astype(np.float32)).all()
        if not finite:
            raise NumericalError(f"refusing to write non-finite tensor to {out / name}.shet")
    out.mkdir(parents=True, exist_ok=True)
    with suppress(FileNotFoundError):
        (out / "meta.json").unlink()
    for name, tensor in tensors:
        write_tensor(tensor, out / f"{name}.shet")
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "d": p.d,
        "heads": p.heads,
        "max_frames": p.max_frames,
        "tau": p.tau,
        "seed": seed,
        "tensors": [name for name, _ in tensors],
    }
    write_file(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


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
    for name, view in tensors:
        value = read_tensor(ckpt / f"{name}.shet")
        if value.shape != view.shape:
            raise DataError(f"tensor {name}: shape {value.shape} != expected {view.shape}")
        view[...] = value  # widened through the view into `flat`
    return p


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BLOCK = 16384  # elements per slice of the update: 128 KB of f64 per array, inside L2


class Adam:
    """Adam over the `flat` buffers, `ADAM_BLOCK` elements at a time, so the
    four arrays stay in cache between the update's passes; every element
    sees the same operations as in a whole-array update."""

    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for lo in range(0, self._m.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            p, g = params.flat[block], grads.flat[block]
            m, v = self._m[block], self._v[block]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
