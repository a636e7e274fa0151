"""Learnable tensors: container, seeded init, checkpoint I/O, Adam updates.

All math runs in float64; checkpoints are stored as float32 tensors and
widened on load. Linear weights use the (out, in) layout so y = W @ x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import SplitMix64
from .tensor_store import read_tensor, write_file, write_tensor

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
        """Fixed-order flat view; the order defines checkpoint and Adam layout."""
        out: list[tuple[str, np.ndarray]] = []
        _emit_tensors("", self, out)
        return out

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        obj = self
        parts = name.split(".")
        for part in parts[:-1]:
            obj = getattr(obj, part)
        current = getattr(obj, parts[-1])
        if current.shape != value.shape:
            raise DataError(f"tensor {name}: shape {value.shape} != expected {current.shape}")
        setattr(obj, parts[-1], value)

    def copy(self) -> "ModelParams":
        fresh = zeros_like(self)
        for (_, dst), (_, src) in zip(fresh.named_tensors(), self.named_tensors()):
            dst[...] = src
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


def _zero_mlp(d_out: int, d_hidden: int, d_in: int) -> MlpParams:
    return MlpParams(
        w1=np.zeros((d_hidden, d_in)),
        b1=np.zeros(d_hidden),
        w2=np.zeros((d_out, d_hidden)),
        b2=np.zeros(d_out),
    )


def _zero_ln(d: int) -> LayerNormParams:
    return LayerNormParams(gain=np.zeros(d), bias=np.zeros(d))


def zeros_like(p: "ModelParams | None" = None, *, d: int | None = None,
               heads: int = 8, max_frames: int = 12, tau: float = 4.0) -> ModelParams:
    """All-zero parameter set; doubles as the gradient accumulator layout."""
    if p is not None:
        d, heads, max_frames, tau = p.d, p.heads, p.max_frames, p.tau
    assert d is not None
    return ModelParams(
        d=d,
        heads=heads,
        max_frames=max_frames,
        tau=tau,
        mlp1=_zero_mlp(d, d, d),
        mlp2=_zero_mlp(d, d, d),
        mlp3=_zero_mlp(d, d, d),
        mlp4=_zero_mlp(d, d, d),
        mlp5=_zero_mlp(d, d, d),
        fusion=_zero_mlp(d, d, 2 * d),
        ln_global=_zero_ln(d),
        ln_action=_zero_ln(d),
        ln_entity=_zero_ln(d),
        ln_enhance=_zero_ln(d),
        ln_weight=_zero_ln(d),
        temporal=TransformerParams(
            wq=np.zeros((d, d)),
            wk=np.zeros((d, d)),
            wv=np.zeros((d, d)),
            wo=np.zeros((d, d)),
            ffn_w1=np.zeros((4 * d, d)), ffn_b1=np.zeros(4 * d),
            ffn_w2=np.zeros((d, 4 * d)), ffn_b2=np.zeros(d),
            ln_attn=_zero_ln(d),
            ln_ffn=_zero_ln(d),
        ),
        pos_emb=np.zeros((max_frames, d)),
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


def save_checkpoint(p: ModelParams, out_dir, *, seed: int) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for name, tensor in p.named_tensors():
        write_tensor(tensor, out / f"{name}.shet")
        names.append(name)
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "d": p.d,
        "heads": p.heads,
        "max_frames": p.max_frames,
        "tau": p.tau,
        "seed": seed,
        "tensors": names,
    }
    write_file(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_checkpoint(ckpt_dir) -> ModelParams:
    ckpt = Path(ckpt_dir)
    meta_path = ckpt / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read checkpoint metadata {meta_path}: {e}") from None
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise DataError(f"{meta_path}: unsupported checkpoint version {meta.get('format_version')}")
    try:
        p = zeros_like(d=int(meta["d"]), heads=int(meta["heads"]),
                       max_frames=int(meta["max_frames"]), tau=float(meta["tau"]))
    except KeyError as e:
        raise DataError(f"{meta_path}: missing field {e}") from None
    expected = [name for name, _ in p.named_tensors()]
    if meta.get("tensors") != expected:
        raise DataError(f"{meta_path}: tensor list does not match this model layout")
    for name in expected:
        p.set_tensor(name, read_tensor(ckpt / f"{name}.shet").astype(np.float64))
    return p


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class Adam:
    def __init__(self, params: ModelParams, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = zeros_like(params)
        self._v = zeros_like(params)

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for (_, p), (_, g), (_, m), (_, v) in zip(
            params.named_tensors(), grads.named_tensors(),
            self._m.named_tensors(), self._v.named_tensors(),
        ):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
