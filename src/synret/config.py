"""Run and training configuration with JSON overrides."""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError


@dataclass
class RunConfig:
    d: int = 512
    lambda_frame: int = 2
    lambda_patch: int = 4
    tau: float = 4.0
    tau_dsl: float = 100.0
    literal_patch_norm: bool = False  # reproduce the fixed 1/lambda_patch frame average
    empty_layer_policy: str = "zero"
    seed: int = 0
    max_frames: int = 12
    heads: int = 8
    threads: int = 1
    batch_size: int = 4
    steps: int = 200
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    stop_loss: float | None = None  # stop training early once a step's loss drops below

    def validate(self) -> None:
        if self.d < 1 or self.max_frames < 1:
            raise UsageError("d and max_frames must be positive")
        if 8 * (25 * self.d**2 + (31 + self.max_frames) * self.d) > sys.maxsize:
            raise UsageError("d and max_frames give a parameter buffer too large to address")
        if self.lambda_frame < 1 or self.lambda_patch < 1:
            raise UsageError("lambda_frame and lambda_patch must be >= 1")
        if self.heads < 1:
            raise UsageError("heads must be >= 1")
        if self.d % self.heads != 0:
            raise UsageError(f"d={self.d} must be divisible by heads={self.heads}")
        if self.empty_layer_policy != "zero":
            raise UsageError(f"unknown empty_layer_policy {self.empty_layer_policy!r}")
        if self.threads < 1:
            raise UsageError("threads must be >= 1")
        if self.batch_size < 2:
            raise UsageError("batch_size must be >= 2 (contrastive loss needs negatives)")
        if self.steps < 0 or self.lr < 0:
            raise UsageError("steps and lr must be non-negative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise UsageError("beta1 and beta2 must be in [0, 1)")
        if self.adam_eps <= 0:
            raise UsageError("adam_eps must be positive")


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def _check_type(key: str, value, hint) -> None:
    """bool is not int, int is not str; float fields take finite floats and
    ints within the float range; an optional field also takes null."""
    optional = type(None) in typing.get_args(hint)
    if optional and value is None:
        return
    kind = next(t for t in _KINDS if hint is t or t in typing.get_args(hint))
    if kind is float:
        # compared, not converted: an int beyond the float range cannot be converted
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    elif kind is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind)
    if not ok:
        null = " or null" if optional else ""
        raise UsageError(f"config key {key!r} must be {_KINDS[kind]}{null}, got {value!r}")


def config_from_dict(data: dict) -> RunConfig:
    hints = typing.get_type_hints(RunConfig)
    for key, value in data.items():
        if key not in hints:
            raise UsageError(f"unknown config key {key!r}")
        _check_type(key, value, hints[key])
    cfg = RunConfig(**data)
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return config_from_dict(data)


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"
