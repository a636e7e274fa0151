"""Output bytes pinned: SHA-256 digests of every file four CLI runs write.

The runs are the README walkthrough at desk scale (fixture seed 1: train,
eval, score --dsl, fuse) and three small runs at reference frame and patch
counts (d=64, 49 patches): 8 pairs of 12 frames (train for 3 steps, eval,
fuse), 20 pairs of 12 frames, more than one `ENCODE_CHUNK` (train for 1
step, eval, score, fuse), and 12 pairs of mixed lengths, 4 each at 12, 9 and
5 frames from three fixtures joined in one manifest (train for 2 steps,
eval, fuse), plus the `--dump-config` output. The 20-pair run also pins the
float64 bytes of `score_matrix` under its checkpoint, which `score` (float32)
and `eval` (ranks) can hide. The digests depend on the numpy and BLAS builds
and on the BLAS kernel (OpenBLAS picks one per CPU, `OPENBLAS_CORETYPE`
overrides it), which `tests/golden/outputs.json` records.

A change that moves output bytes on purpose regenerates the file, with a
CHANGES.md line saying why:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import ctypes
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import astuple
from pathlib import Path

import numpy as np

from synret.cli import main
from synret.config import load_config
from synret.dataset import load_bundles
from synret.params import load_checkpoint
from synret.scoring import score_matrix
from synret.tensor_store import PairRecord, read_manifest, write_manifest

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"

# name: (gen-fixtures flags, or {subdir: flags} for one manifest over several
# fixtures; train config; score flags or None for no score)
RUNS = {
    "desk": (["--seed", "1", "--pairs", "8", "--tokens", "6", "--frames", "4",
              "--patches", "9", "--dim", "16"],
             {"d": 16, "max_frames": 4, "seed": 1, "batch_size": 8,
              "steps": 500, "lr": 1e-3, "stop_loss": 0.01},
             ["--dsl"]),
    "ref64": (["--seed", "1", "--pairs", "8", "--tokens", "12", "--frames", "12",
               "--patches", "49", "--dim", "64"],
              {"d": 64, "max_frames": 12, "seed": 1, "batch_size": 8,
               "steps": 3, "lr": 1e-3},
              None),
    "ref64-chunks": (["--seed", "1", "--pairs", "20", "--tokens", "12", "--frames", "12",
                      "--patches", "49", "--dim", "64"],
                     {"d": 64, "max_frames": 12, "seed": 1, "batch_size": 8,
                      "steps": 1, "lr": 1e-3},
                     []),
    "ref64-mixed": ({f"f{n}": ["--seed", str(seed), "--pairs", "4", "--tokens", "12",
                               "--frames", str(n), "--patches", "49", "--dim", "64"]
                     for seed, n in ((1, 12), (2, 9), (3, 5))},
                    {"d": 64, "max_frames": 12, "seed": 1, "batch_size": 8,
                     "steps": 2, "lr": 1e-3},
                    None),
}


def build_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict form
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "core": blas_core()}


def blas_core() -> str:
    """The kernel numpy's OpenBLAS runs, `SkylakeX` or `Haswell` say, read
    from the library numpy's extension module links."""
    try:
        from numpy._core import _multiarray_umath
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):  # numpy 1.x, or another BLAS
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _gen_fixtures(fx: Path, fixture_args) -> None:
    """One fixture in `fx`, or one per subdir of `fx` joined in
    `fx/manifest.json`, each pair id and path prefixed by its subdir."""
    if isinstance(fixture_args, list):
        assert main(["gen-fixtures", *fixture_args, "--out", str(fx)]) == 0
        return
    records = []
    for sub, args in fixture_args.items():
        assert main(["gen-fixtures", *args, "--out", str(fx / sub)]) == 0
        records += [PairRecord(f"{sub}-{r.pair_id}", *(f"{sub}/{path}" for path in astuple(r)[1:]))
                    for r in read_manifest(fx / sub / "manifest.json")]
    write_manifest(records, fx / "manifest.json")


def _run(root: Path, name: str, fixture_args, cfg: dict, score_args) -> None:
    run = root / name
    fx, ckpt, cfg_path = run / "fx", run / "ckpt", run / "train.json"
    common = ["--manifest", str(fx / "manifest.json"), "--config", str(cfg_path)]
    steps = [
        ["train", *common, "--out", str(ckpt)],
        ["eval", *common, "--params", str(ckpt), "--report", str(run / "report.json")],
        ["fuse", *common, "--params", str(ckpt), "--out", str(run / "feats")],
    ]
    if score_args is not None:
        steps.append(["score", *common, "--params", str(ckpt), *score_args,
                      "--out", str(run / "scores.shet")])
    run.mkdir()
    cfg_path.write_text(json.dumps(cfg))
    _gen_fixtures(fx, fixture_args)
    for argv in steps:
        assert main(argv) == 0, argv


def output_digests(root: Path) -> dict:
    """{relative path: sha256} of every output the runs write under `root`."""
    with redirect_stdout(io.StringIO()):
        for name, run in RUNS.items():
            _run(root, name, *run)
    with redirect_stdout(io.StringIO()) as out:
        assert main(["--dump-config"]) == 0
    digests = {"dump-config": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    run = root / "ref64-chunks"
    bundles = load_bundles(run / "fx" / "manifest.json")
    s = score_matrix(bundles, bundles, load_checkpoint(run / "ckpt"),
                     load_config(run / "train.json"))
    digests["ref64-chunks/score_matrix.float64"] = hashlib.sha256(s.tobytes()).hexdigest()
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "train.json":
            digests[p.relative_to(root).as_posix()] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path):
    golden, here = json.loads(GOLDEN.read_text()), build_info()
    got = output_digests(tmp_path)
    differ = [k for k in sorted(golden["digests"].keys() | got.keys())
              if golden["digests"].get(k) != got.get(k)]
    assert not differ, (
        f"{len(differ)} output digests differ from {GOLDEN.name}, first {differ[0]}; "
        f"recorded with numpy {golden['numpy']} and BLAS {golden['blas']} on the "
        f"{golden['core']} kernel, running numpy {here['numpy']} and BLAS "
        f"{here['blas']} on the {here['core']} kernel")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = {**build_info(), "digests": output_digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN}", file=sys.stderr)
