"""Loading pair records into validated in-memory feature bundles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conllu import parse_conllu
from .errors import DataError
from .hierarchy import HierarchyIndex, SyntaxHierarchy, build_hierarchy, index_hierarchy
from .tensor_store import PairRecord, read_manifest, read_tensor, read_tensor_shape, resolve


@dataclass
class FeatureBundle:
    """Everything needed to evaluate one caption against one video."""

    pair_id: str
    hierarchy: SyntaxHierarchy
    index: HierarchyIndex
    text: np.ndarray     # (N_t+1, d) float64, row 0 = caption CLS
    frames: np.ndarray   # (N_v, d) float64
    patches: np.ndarray  # (N_v, N_p, d) float32 as stored; readers widen what
                         # they read (a frame, the picked rows) to float64

    @property
    def n_tokens(self) -> int:
        return self.text.shape[0] - 1

    @property
    def d(self) -> int:
        return self.text.shape[1]


def load_bundle(record: PairRecord, manifest_path,
                patches_out: np.ndarray | None = None) -> FeatureBundle:
    """One pair's bundle; `patches_out`, if given, receives the patch
    payload (see `read_tensor`)."""
    conllu_path = resolve(manifest_path, record.text_conllu_path)
    try:
        raw = Path(conllu_path).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"{record.pair_id}: cannot read {conllu_path}: {e}") from None
    tokens = parse_conllu(raw)
    hierarchy = build_hierarchy(tokens)

    text = read_tensor(resolve(manifest_path, record.text_features_path)).astype(np.float64)
    frames = read_tensor(resolve(manifest_path, record.frame_cls_path)).astype(np.float64)
    patches = read_tensor(resolve(manifest_path, record.patch_features_path), patches_out)

    if text.ndim != 2 or frames.ndim != 2 or patches.ndim != 3:
        raise DataError(f"{record.pair_id}: tensor ranks must be text=2 frames=2 patches=3")
    d = text.shape[1]
    if frames.shape[1] != d or patches.shape[2] != d:
        raise DataError(
            f"{record.pair_id}: dimension mismatch across tensors "
            f"(text d={d}, frames d={frames.shape[1]}, patches d={patches.shape[2]})"
        )
    if text.shape[0] < 2:
        raise DataError(f"{record.pair_id}: text features need a CLS row plus >= 1 token row")
    if frames.shape[0] < 1 or patches.shape[1] < 1:
        raise DataError(f"{record.pair_id}: need at least one frame and one patch")
    if patches.shape[0] != frames.shape[0]:
        raise DataError(
            f"{record.pair_id}: patch tensor covers {patches.shape[0]} frames, "
            f"frame tensor has {frames.shape[0]}"
        )
    if len(tokens) != text.shape[0] - 1:
        raise DataError(
            f"{record.pair_id}: caption has {len(tokens)} tokens but text features "
            f"have {text.shape[0] - 1} token rows"
        )
    return FeatureBundle(
        pair_id=record.pair_id,
        hierarchy=hierarchy,
        index=index_hierarchy(hierarchy),
        text=text,
        frames=frames,
        patches=patches,
    )


def load_bundles(manifest_path) -> list[FeatureBundle]:
    """Every pair of a manifest. All patch payloads, nearly all of the bytes,
    share one allocation, large enough for transparent huge pages: with one
    array per video, each load page-faulted its memory in 4 KB pages (about
    26,000 faults for 100 reference-shape pairs)."""
    records = read_manifest(manifest_path)
    if not records:
        raise DataError(f"{manifest_path}: empty manifest")
    sizes = [math.prod(read_tensor_shape(resolve(manifest_path, r.patch_features_path)))
             for r in records]
    arena = np.empty(sum(sizes), dtype=np.float32)
    first = np.cumsum([0] + sizes)
    return [load_bundle(r, manifest_path, arena[lo:hi])
            for r, lo, hi in zip(records, first[:-1], first[1:])]


def synthetic_bundles(seed: int, n_pairs: int, n_tokens: int, n_frames: int,
                      n_patches: int, d: int) -> list[FeatureBundle]:
    """In-memory equivalent of gen_fixture + load_bundles (same draws)."""
    from .rng import SplitMix64
    from .tensor_store import gen_pair_arrays

    rng = SplitMix64(seed)
    bundles = []

    def as_stored(x: np.ndarray) -> np.ndarray:
        # round-trip through f32 so in-memory bundles match file-loaded ones
        return x.astype(np.float32).astype(np.float64)

    for i in range(n_pairs):
        conllu, text, frames, patches = gen_pair_arrays(rng, n_tokens, n_frames, n_patches, d)
        tokens = parse_conllu(conllu)
        hierarchy = build_hierarchy(tokens)
        bundles.append(
            FeatureBundle(
                pair_id=f"pair{i:04d}",
                hierarchy=hierarchy,
                index=index_hierarchy(hierarchy),
                text=as_stored(text),
                frames=as_stored(frames),
                patches=patches.astype(np.float32),
            )
        )
    return bundles
