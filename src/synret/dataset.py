"""Loading pair records into validated in-memory feature bundles."""

from __future__ import annotations

import tempfile
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .conllu import parse_conllu
from .errors import DataError, DataWarning
from .hierarchy import HierarchyIndex, build_hierarchy, index_hierarchy
from .tensor_store import (
    PairRecord, gen_fixture, read_manifest, read_tensor, read_tensor_shape, resolve,
)


@dataclass(frozen=True)
class PatchFile:
    """A patch payload left in its file: the path, and the dims its header
    gave when the bundle was loaded."""
    path: Path
    shape: tuple[int, ...]

    def read(self) -> np.ndarray:
        """The float32 payload through `read_tensor`, with its size and
        finiteness checks; a file whose dims are no longer those of its
        header at load is a DataError."""
        patches = read_tensor(self.path)
        if patches.shape != self.shape:
            raise DataError(f"{self.path}: file changed while being read")
        return patches


@dataclass
class FeatureBundle:
    """Everything needed to evaluate one caption against one video."""

    pair_id: str
    index: HierarchyIndex
    text: np.ndarray     # (N_t+1, d) float64, row 0 = caption CLS
    frames: np.ndarray   # (N_v, d) float64
    # (N_v, N_p, d) float32 as stored, or the file to read it from (see
    # `read_patches`); readers widen what they read (a frame, the picked
    # rows) to float64
    patches: np.ndarray | PatchFile

    @property
    def d(self) -> int:
        return self.text.shape[1]

    def read_patches(self) -> np.ndarray:
        """The float32 patch array: the one held, or the payload of its file,
        read now and not kept."""
        return self.patches.read() if isinstance(self.patches, PatchFile) else self.patches

    @cached_property
    def node_features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(f1, f2, f3, f4) from `init_node_features`, gathered on first use
        and then kept: training encodes each caption at every step."""
        return init_node_features(self.index, self.text)


def init_node_features(index: HierarchyIndex, text: np.ndarray):
    """Gather initial node features from the encoder token rows.

    Row 0 of `text` is the caption CLS feature; token positions are 1-based
    row indices. The EXIST action node gets the mean of all token rows.
    """
    n_tokens = text.shape[0] - 1
    for mu in [m for m in index.mu2 if m is not None] + index.mu3 + index.mu4:
        if mu > n_tokens:
            raise DataError(f"token position {mu} out of range (caption has {n_tokens} tokens)")
    f1 = text[0]
    word_mean = text[1:].mean(axis=0)
    f2 = np.stack([word_mean if mu is None else text[mu] for mu in index.mu2])
    f3 = text[list(index.mu3)] if index.mu3 else np.zeros((0, text.shape[1]))
    f4 = text[list(index.mu4)] if index.mu4 else np.zeros((0, text.shape[1]))
    return f1, f2, f3, f4


def load_bundle(record: PairRecord, manifest_path) -> FeatureBundle:
    """One pair's bundle, every input checked but the patch payload, which
    stays in its file (a `PatchFile`) with its header checked."""
    conllu_path = resolve(manifest_path, record.text_conllu_path)
    try:
        raw = Path(conllu_path).read_bytes()
    except OSError as e:
        raise DataError(f"{record.pair_id}: cannot read {conllu_path}: {e}") from None
    try:  # a caption's error or warning names the pair and the file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DataWarning)
            tokens = parse_conllu(raw)
    except DataError as e:
        raise DataError(f"{record.pair_id}: {conllu_path}: {e}") from None
    for w in caught:
        warnings.warn(f"{record.pair_id}: {conllu_path}: {w.message}", DataWarning, stacklevel=2)

    text = read_tensor(resolve(manifest_path, record.text_features_path)).astype(np.float64)
    frames = read_tensor(resolve(manifest_path, record.frame_cls_path)).astype(np.float64)
    patch_path = resolve(manifest_path, record.patch_features_path)
    patch_dims = read_tensor_shape(patch_path)

    if text.ndim != 2 or frames.ndim != 2 or len(patch_dims) != 3:
        raise DataError(f"{record.pair_id}: tensor ranks must be text=2 frames=2 patches=3")
    d = text.shape[1]
    if frames.shape[1] != d or patch_dims[2] != d:
        raise DataError(
            f"{record.pair_id}: dimension mismatch across tensors "
            f"(text d={d}, frames d={frames.shape[1]}, patches d={patch_dims[2]})"
        )
    if text.shape[0] < 2:
        raise DataError(f"{record.pair_id}: text features need a CLS row plus >= 1 token row")
    if frames.shape[0] < 1 or patch_dims[1] < 1:
        raise DataError(f"{record.pair_id}: need at least one frame and one patch")
    if patch_dims[0] != frames.shape[0]:
        raise DataError(
            f"{record.pair_id}: patch tensor covers {patch_dims[0]} frames, "
            f"frame tensor has {frames.shape[0]}"
        )
    if len(tokens) != text.shape[0] - 1:
        raise DataError(
            f"{record.pair_id}: caption has {len(tokens)} tokens but text features "
            f"have {text.shape[0] - 1} token rows"
        )
    return FeatureBundle(
        pair_id=record.pair_id,
        index=index_hierarchy(build_hierarchy(tokens)),
        text=text,
        frames=frames,
        patches=PatchFile(patch_path, patch_dims),
    )


def load_bundles(manifest_path) -> list[FeatureBundle]:
    """Every pair of a manifest, checked as `load_bundle` checks one. The
    patch payloads, nearly all of the bytes, stay in their files until a
    gallery chunk or a training batch uses them (`FeatureBundle.read_patches`)."""
    records = read_manifest(manifest_path)
    if not records:
        raise DataError(f"{manifest_path}: empty manifest")
    return [load_bundle(r, manifest_path) for r in records]


def hold_patches(bundles: list[FeatureBundle]) -> None:
    """Reads every patch payload still in its file into an array of its own,
    in place, with `read_patches`' checks."""
    for b in bundles:
        b.patches = b.read_patches()


def check_fits(bundles: list[FeatureBundle], d: int, max_frames: int) -> None:
    """A DataError names the first pair whose features are not `d` wide or
    whose video has more than `max_frames` frames; the encoders assume both."""
    for b in bundles:
        if b.d != d:
            raise DataError(f"{b.pair_id}: dimension mismatch (features d={b.d}, model d={d})")
        if b.frames.shape[0] > max_frames:
            raise DataError(f"{b.pair_id}: {b.frames.shape[0]} frames exceed max_frames={max_frames}")


def synthetic_bundles(seed: int, n_pairs: int, n_tokens: int, n_frames: int,
                      n_patches: int, d: int) -> list[FeatureBundle]:
    """The bundles `load_bundles` reads from `gen_fixture`'s files, through a
    temporary directory; the payloads are in memory before it goes."""
    with tempfile.TemporaryDirectory() as tmp:
        bundles = load_bundles(gen_fixture(seed, n_pairs, n_tokens, n_frames, n_patches, d, tmp))
        hold_patches(bundles)
    return bundles
