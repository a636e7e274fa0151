"""Binary tensor container, dataset manifests, and synthetic fixtures.

File format (little-endian throughout):

    magic   4 bytes  b"SHET"
    version 1 byte   (currently 1)
    dtype   1 byte   (0 = float32, the only supported dtype)
    ndim    u32
    dims    ndim * u64
    payload product(dims) * f32, row-major

Loads reject anything non-finite so downstream math never sees NaN/Inf.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, NumericalError
from .rng import SplitMix64

MAGIC = b"SHET"
FORMAT_VERSION = 1
DTYPE_F32 = 0

_HEADER = struct.Struct("<4sBBI")


def write_tensor(t: np.ndarray, path) -> None:
    """Write an array as an f32 SHET file. Values must be finite."""
    arr = np.asarray(t, dtype=np.float32)
    if arr.size and not np.isfinite(arr).all():
        raise NumericalError(f"refusing to write non-finite tensor to {path}")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_F32, arr.ndim))
        for dim in arr.shape:
            f.write(struct.pack("<Q", dim))
        f.write(np.ascontiguousarray(arr).tobytes())


def read_tensor(path) -> np.ndarray:
    """Inverse of write_tensor. Returns float32; callers widen to f64."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}") from None
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, version, dtype, ndim = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if dtype != DTYPE_F32:
        raise DataError(f"{path}: unsupported dtype tag {dtype}")
    off = _HEADER.size
    if len(raw) < off + 8 * ndim:
        raise DataError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{ndim}Q", raw, off) if ndim else ()
    off += 8 * ndim
    count = 1
    for dim in dims:
        count *= dim
    if len(raw) - off != 4 * count:
        raise DataError(
            f"{path}: payload size {len(raw) - off} does not match header "
            f"({count} f32 values expected)"
        )
    arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off).reshape(dims)
    if arr.size and not np.isfinite(arr).all():
        raise NumericalError(f"{path}: non-finite values in payload")
    return arr.copy()


@dataclass
class PairRecord:
    """One caption-video pair: a parse file plus three feature tensors."""

    pair_id: str
    text_conllu_path: str
    text_features_path: str  # (N_t+1, d), row 0 is the caption CLS feature
    frame_cls_path: str      # (N_v, d)
    patch_features_path: str  # (N_v, N_p, d)

    def to_dict(self) -> dict:
        return {
            "pair_id": self.pair_id,
            "text_conllu_path": self.text_conllu_path,
            "text_features_path": self.text_features_path,
            "frame_cls_path": self.frame_cls_path,
            "patch_features_path": self.patch_features_path,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PairRecord":
        if not isinstance(d, dict):
            raise DataError(f"manifest record must be a JSON object, got {d!r}")
        try:
            return cls(
                pair_id=str(d["pair_id"]),
                text_conllu_path=str(d["text_conllu_path"]),
                text_features_path=str(d["text_features_path"]),
                frame_cls_path=str(d["frame_cls_path"]),
                patch_features_path=str(d["patch_features_path"]),
            )
        except KeyError as e:
            raise DataError(f"manifest record missing field {e}") from None


def write_manifest(records: list[PairRecord], path) -> None:
    payload = json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def read_manifest(path) -> list[PairRecord]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read manifest {path}: {e}") from None
    if not isinstance(data, list):
        raise DataError(f"{path}: manifest must be a JSON array")
    records = [PairRecord.from_dict(d) for d in data]
    seen = set()
    for r in records:
        # fuse names its output files after the id
        if r.pair_id in ("", ".", "..") or any(c in r.pair_id for c in "/\\\0"):
            raise DataError(f"{path}: pair_id {r.pair_id!r} is not a safe file name stem")
        if r.pair_id in seen:
            raise DataError(f"{path}: duplicate pair_id {r.pair_id!r}")
        seen.add(r.pair_id)
    return records


def resolve(manifest_path, rel: str) -> Path:
    """Record paths are relative to the manifest's directory."""
    return Path(manifest_path).parent / rel


# ---------------------------------------------------------------------------
# Synthetic fixtures
# ---------------------------------------------------------------------------

_WORDS = {
    "NOUN": ["man", "dog", "car", "song", "city", "tree", "ball", "girl"],
    "PROPN": ["alice", "bob"],
    "PRON": ["someone", "it", "they"],
    "VERB": ["runs", "sings", "jumps", "plays", "walks", "dances"],
    "ADJ": ["red", "big", "old", "happy", "small", "blue"],
    "DET": ["the", "a"],
    "AUX": ["is", "was"],
    "ADV": ["quickly", "slowly"],
    "PUNCT": ["."],
}


def _template_verbal(n: int) -> list[tuple[str, int, str]]:
    """subject + verb, then object nouns each optionally carrying an adjective."""
    if n == 1:
        return [("VERB", 0, "root")]
    toks = [("PRON", 2, "nsubj"), ("VERB", 0, "root")]
    while len(toks) < n:
        toks.append(("NOUN", 2, "obj"))
        if len(toks) < n:
            toks.append(("ADJ", len(toks), "amod"))  # head = preceding noun
    return toks


def _template_verbless(n: int) -> list[tuple[str, int, str]]:
    """noun phrase only; hierarchy building must fall back to the filler node."""
    if n == 1:
        return [("NOUN", 0, "root")]
    toks = [("DET", 2, "det"), ("NOUN", 0, "root")]
    last_noun = 2
    while len(toks) < n:
        toks.append(("ADJ", last_noun, "amod"))
        if len(toks) < n:
            toks.append(("NOUN", 2, "conj"))
            last_noun = len(toks)
    return toks


def _template_two_verbs(n: int) -> list[tuple[str, int, str]]:
    """coordinated clauses so nouns attach to different verbs."""
    if n == 1:
        return [("VERB", 0, "root")]
    if n < 4:
        return [("NOUN", 2, "nsubj"), ("VERB", 0, "root"), ("NOUN", 2, "obj")][:n]
    toks = [("NOUN", 2, "nsubj"), ("VERB", 0, "root"), ("VERB", 2, "conj"), ("NOUN", 3, "obj")]
    verb = [2, 3]
    k = 0
    while len(toks) < n:
        toks.append(("NOUN", verb[k % 2], "obj"))
        k += 1
        if len(toks) < n:
            toks.append(("ADJ", len(toks), "amod"))
    return toks


def _template_mixed(n: int) -> list[tuple[str, int, str]]:
    """includes tokens (AUX/ADV/PUNCT) that never enter the hierarchy."""
    if n == 1:
        return [("VERB", 0, "root")]
    if n == 2:
        return [("PRON", 2, "nsubj"), ("VERB", 0, "root")]
    toks = [("PRON", 3, "nsubj"), ("AUX", 3, "aux"), ("VERB", 0, "root")][: min(3, n)]
    filler = [("NOUN", 3, "obj"), ("ADV", 3, "advmod"), ("ADJ", None, "amod"), ("PUNCT", 3, "punct")]
    last_noun = None
    k = 0
    while len(toks) < n:
        upos, head, rel = filler[k % len(filler)]
        if upos == "ADJ":
            if last_noun is None:
                upos, head, rel = "NOUN", 3, "obj"
            else:
                head = last_noun
        if upos == "NOUN":
            last_noun = len(toks) + 1
        toks.append((upos, head, rel))
        k += 1
    return toks


_TEMPLATES = [_template_verbal, _template_verbless, _template_two_verbs, _template_mixed]


def render_conllu(tokens: list[tuple[str, str, int, str]]) -> str:
    """tokens: (form, upos, head, deprel) -> standard 10-column CoNLL-U text."""
    lines = ["# text = " + " ".join(form for form, *_ in tokens)]
    for i, (form, upos, head, deprel) in enumerate(tokens, start=1):
        lines.append(
            "\t".join([str(i), form, form, upos, "_", "_", str(head), deprel, "_", "_"])
        )
    return "\n".join(lines) + "\n"


def synth_caption(rng: SplitMix64, n_tokens: int) -> str:
    """One synthetic dependency-parsed caption from the fixed template pool."""
    template = _TEMPLATES[rng.randint(len(_TEMPLATES))]
    skeleton = template(n_tokens)
    toks = []
    for upos, head, rel in skeleton:
        pool = _WORDS[upos]
        toks.append((pool[rng.randint(len(pool))], upos, head, rel))
    return render_conllu(toks)


def _unit_rows(rng: SplitMix64, shape) -> np.ndarray:
    """Uniform(-1,1) then L2-normalize along the last axis, like encoder output."""
    x = rng.uniform_sym(shape)
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return x / norms


def gen_pair_arrays(rng: SplitMix64, n_tokens: int, n_frames: int,
                    n_patches: int, d: int):
    """One pair's raw data: (conllu text, text feats, frame feats, patch feats)."""
    conllu = synth_caption(rng, n_tokens)
    text = _unit_rows(rng, (n_tokens + 1, d))
    frames = _unit_rows(rng, (n_frames, d))
    patches = _unit_rows(rng, (n_frames, n_patches, d))
    return conllu, text, frames, patches


def gen_fixture(
    seed: int,
    n_pairs: int,
    n_tokens: int,
    n_frames: int,
    n_patches: int,
    d: int,
    out_dir,
) -> Path:
    """Write n_pairs synthetic pair records under out_dir; returns manifest path.

    Deterministic: identical arguments give byte-identical output.
    """
    for name, v in [("n_pairs", n_pairs), ("n_tokens", n_tokens),
                    ("n_frames", n_frames), ("n_patches", n_patches), ("d", d)]:
        if v < 1:
            raise DataError(f"gen_fixture: {name} must be >= 1, got {v}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = SplitMix64(seed)
    records = []
    for i in range(n_pairs):
        pid = f"pair{i:04d}"
        conllu, text, frames, patches = gen_pair_arrays(rng, n_tokens, n_frames, n_patches, d)
        (out / f"{pid}.conllu").write_text(conllu, encoding="utf-8")
        write_tensor(text, out / f"{pid}.text.shet")
        write_tensor(frames, out / f"{pid}.frames.shet")
        write_tensor(patches, out / f"{pid}.patches.shet")
        records.append(
            PairRecord(
                pair_id=pid,
                text_conllu_path=f"{pid}.conllu",
                text_features_path=f"{pid}.text.shet",
                frame_cls_path=f"{pid}.frames.shet",
                patch_features_path=f"{pid}.patches.shet",
            )
        )
    manifest = out / "manifest.json"
    write_manifest(records, manifest)
    return manifest
