"""The chunk pool behind `score_matrix`, and BLAS held to one thread where
output bytes must not depend on the machine."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import synret
from synret import parallel, scoring
from synret.cli import main
from synret.config import RunConfig
from synret.dataset import load_bundles
from synret.params import init_params, save_checkpoint
from synret.parallel import BLAS_PINNABLE, blas_threads, in_order
from synret.scoring import POOL_MIN_D, score_matrix
from synret.tensor_store import PairRecord, gen_fixture, read_manifest, write_manifest


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """40 pairs at d=128 (three encode chunks), with 5, 4 and 3 frames in
    turn, so that every chunk holds videos of three lengths."""
    root = tmp_path_factory.mktemp("mixed")
    parts = {n: read_manifest(gen_fixture(60 + n, 14, 6, n, 9, POOL_MIN_D, root / f"f{n}"))
             for n in (5, 4, 3)}
    records = []
    for i in range(14):
        for n, part in parts.items():
            r = part[i]
            records.append(PairRecord(f"f{n}-{r.pair_id}", f"f{n}/{r.text_conllu_path}",
                                      f"f{n}/{r.text_features_path}", f"f{n}/{r.frame_cls_path}",
                                      f"f{n}/{r.patch_features_path}"))
    manifest = root / "manifest.json"
    write_manifest(records[:40], manifest)
    return manifest


def _workers(monkeypatch, n):
    monkeypatch.setattr(scoring, "usable_cpus", lambda: n)
    monkeypatch.setattr(scoring, "POOL_WIDTH", n)


def test_score_matrix_bytes_do_not_depend_on_the_worker_count(mixed, monkeypatch):
    bundles = load_bundles(mixed)
    params = init_params(3, POOL_MIN_D, max_frames=5)
    cfg = RunConfig(d=POOL_MIN_D, max_frames=5)
    forward = scoring.video_forward
    digests, on_main = {}, {}

    def spy(chunk, p):
        on_main[workers].append(threading.current_thread() is threading.main_thread())
        return forward(chunk, p)

    monkeypatch.setattr(scoring, "video_forward", spy)
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        on_main[workers] = []
        digests[workers] = hashlib.sha256(score_matrix(bundles, bundles, params, cfg)
                                          .tobytes()).hexdigest()
    assert digests[1] == digests[2] == digests[3]
    assert on_main == {w: [w == 1 or not BLAS_PINNABLE] * 3 for w in (1, 2, 3)}


@pytest.mark.filterwarnings("error")
def test_floating_point_fault_in_a_worker_is_one_line_exit_3(mixed, tmp_path, capsys,
                                                             monkeypatch):
    """One step at lr 1e38 leaves parameters that overflow in the next
    forward pass, which the workers run: numpy's error state must reach
    them, or the overflow is a warning (an error here) instead of exit 3."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"d": POOL_MIN_D, "max_frames": 5, "seed": 1, "batch_size": 8,
                               "steps": 1, "lr": 1e38}))
    ckpt, report = tmp_path / "ckpt", tmp_path / "report.json"
    assert main(["train", "--manifest", str(mixed), "--config", str(cfg),
                 "--out", str(ckpt)]) == 0
    _workers(monkeypatch, 2)
    capsys.readouterr()
    assert main(["eval", "--manifest", str(mixed), "--params", str(ckpt),
                 "--report", str(report)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("synret: numerical error: eval: floating-point error: overflow")
    assert len(err.splitlines()) == 1 and not report.exists()


def test_in_order_keeps_item_order_for_results_and_errors():
    """Item 0 fails after item 2 has failed, and its error is the one raised."""
    started = threading.Event()

    def fn(i):
        if i == 0:
            started.wait(timeout=5)
            raise ValueError("0")
        if i == 2:
            started.set()
            raise ValueError("2")
        return i

    assert in_order(lambda i: i * i, list(range(5)), 3) == [0, 1, 4, 9, 16]
    with pytest.raises(ValueError, match="^0$"):
        in_order(fn, [0, 1, 2, 3], 2)
    with np.errstate(over="raise", under="ignore"):
        assert in_order(lambda _: np.geterr()["over"], [0, 1, 2], 2) == ["raise"] * 3


@pytest.mark.skipif(not BLAS_PINNABLE, reason="numpy's BLAS exposes no thread control")
def test_blas_threads_restores_the_count():
    before = parallel._blas_get()
    with blas_threads(1):
        assert parallel._blas_get() == 1
        with blas_threads(1):
            assert parallel._blas_get() == 1
    assert parallel._blas_get() == before


_SCORE_AND_FUSE = """
import hashlib, sys
from synret.cli import main
from synret.config import RunConfig
from synret.dataset import load_bundles
from synret.params import load_checkpoint
from synret import scoring
manifest, ckpt, out = sys.argv[1:]
bundles, params = load_bundles(manifest), load_checkpoint(ckpt)
cfg = RunConfig(max_frames=params.max_frames)
for workers in (2, 1):  # on one worker BLAS runs at the count it was given
    scoring.usable_cpus = lambda: workers
    s = scoring.score_matrix(bundles, bundles, params, cfg)
    print(hashlib.sha256(s.tobytes()).hexdigest())
assert main(["fuse", "--manifest", manifest, "--params", ckpt, "--out", out]) == 0
"""


def test_scores_and_fuse_picks_do_not_depend_on_the_blas_thread_count(tmp_path):
    """At d=512 some layer-3 patch GEMMs round differently at one and two
    OpenBLAS threads; on this fixture two float64 scores moved when they ran
    at the library's own count."""
    manifest = gen_fixture(4, 24, 12, 6, 49, 512, tmp_path / "fx")
    save_checkpoint(init_params(4, 512, max_frames=6), tmp_path / "ckpt", seed=4)
    src = str(Path(synret.__file__).parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"fused{threads}"
        done = subprocess.run([sys.executable, "-c", _SCORE_AND_FUSE, str(manifest),
                               str(tmp_path / "ckpt"), str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        runs[threads] = (*done.stdout.splitlines()[:2], (out / "index.json").read_bytes())
    pooled, alone, _ = runs["1"]
    assert pooled == alone and runs["1"] == runs["2"]
