"""The workloads: their inputs, the CLI calls of one round, and their checks.

Every timed operation is one call of `synret.cli.main` with the arguments a
user would type, at the default `--threads`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference
from reference import require


@dataclass(frozen=True)
class Fixture:
    pairs: int
    tokens: int
    frames: int
    patches: int
    dim: int

    def argv(self, seed: int, out: Path) -> list:
        return ["gen-fixtures", "--seed", seed, "--pairs", self.pairs, "--tokens", self.tokens,
                "--frames", self.frames, "--patches", self.patches, "--dim", self.dim, "--out", out]

    @property
    def geometry(self) -> dict:
        return {"d": self.dim, "max_frames": self.frames}


# The paper's reference shape, the README's desk shape, and a smaller one for smoke runs.
REF = dict(tokens=12, frames=12, patches=49, dim=512)
DESK = dict(tokens=6, frames=4, patches=9, dim=16)
SMOKE = dict(tokens=8, frames=4, patches=9, dim=32)


@dataclass
class Op:
    kind: str                  # gen | train | eval | fuse | score
    argv: list
    manifest: Path | None = None
    params: Path | None = None
    config: Path | None = None
    out: Path | None = None    # fixture dir, checkpoint dir, report, fused dir or matrix
    pairs: int = 0             # caption-video pairs asked for (eval n*n, fuse n)
    batch: int = 0             # train: pairs per step
    walkthrough: bool = False  # desk: this eval must reach R@1 = 100 both ways


@dataclass
class Done:
    op: Op
    code: int
    seconds: float
    steps: int = 0
    digest: str = ""
    error: str = ""
    matrix: object = None      # float64 score matrix seen by the tracer


def train_op(manifest, config, out, batch) -> Op:
    return Op("train", ["train", "--manifest", manifest, "--config", config, "--out", out],
              manifest=manifest, config=config, out=out, batch=batch)


def eval_op(manifest, params, report, n, config=None, walkthrough=False) -> Op:
    extra = ["--config", config] if config else []
    return Op("eval", ["eval", "--manifest", manifest, "--params", params, "--report", report, *extra],
              manifest=manifest, params=params, config=config, out=report, pairs=n * n,
              walkthrough=walkthrough)


def fuse_op(manifest, params, out, n) -> Op:
    return Op("fuse", ["fuse", "--manifest", manifest, "--params", params, "--out", out],
              manifest=manifest, params=params, out=out, pairs=n)


def score_op(ev: Op, out: Path) -> Op:
    extra = ["--config", ev.config] if ev.config else []
    return Op("score", ["score", "--manifest", ev.manifest, "--params", ev.params, "--out", out, *extra],
              manifest=ev.manifest, params=ev.params, config=ev.config, out=out)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def loss_rows(ckpt: Path) -> list[float]:
    lines = (ckpt / "loss.csv").read_text().split()
    require(lines[0] == "step,loss", f"{ckpt}/loss.csv: missing header")
    rows = [line.split(",") for line in lines[1:]]
    require([int(s) for s, _ in rows] == list(range(1, len(rows) + 1)),
            f"{ckpt}/loss.csv: steps are not 1..{len(rows)}")
    return [float(v) for _, v in rows]


class Runner:
    """Makes CLI calls, times them and, while a tracer is installed, counts
    the pairs and steps they were asked for."""

    def __init__(self, cli_main):
        self.main = cli_main
        self.tracer = None
        self.traced_pairs = 0
        self.traced_steps = 0

    def execute(self, op: Op) -> Done:
        out, err = io.StringIO(), io.StringIO()
        tr = self.tracer
        if tr is not None:
            tr.last_matrix = None
            span = tr.open("cli")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main([str(a) for a in op.argv])
            except Exception:  # a traceback out of the CLI is a failed operation
                traceback.print_exc(file=err)
                code = -1
        seconds = time.perf_counter() - t0
        if tr is not None:
            tr.close(span)
        done = Done(op, code, seconds, error=err.getvalue().strip())
        if code == 0 and op.kind == "train":
            done.steps = len(loss_rows(op.out))
        if code == 0 and op.kind in ("train", "eval", "fuse"):
            done.digest = digest(op.out)
        if tr is not None:
            done.matrix = tr.last_matrix
            self.traced_pairs += op.pairs + done.steps * op.batch ** 2
            self.traced_steps += done.steps
        return done

    @contextlib.contextmanager
    def traced(self, tracer):
        """Calls made inside run with the tracer's wrappers installed, if one is given."""
        if tracer is None:
            yield
            return
        tracer.install()
        self.tracer = tracer
        try:
            yield
        finally:
            self.tracer = None
            tracer.remove()

    def must(self, op: Op) -> Done:
        done = self.execute(op)
        if done.code != 0:
            raise RuntimeError(f"{' '.join(map(str, op.argv))} exited {done.code}: {done.error}")
        return done


class Workload:
    """Set-up, the operations of one round, and the checks on their outputs."""

    name = ""
    setup_fixture: Fixture

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.work = work
        self.setup_pairs = 4 if smoke else 8
        self.setup_dir = work / "setup"
        self.setup_fx = self.setup_dir / "fx"
        self.setup_ckpt = self.setup_dir / "ckpt"
        self.round_dir = work / "round"
        self.first_round: list[Done] | None = None

    def setup(self, runner: Runner) -> None:
        """Fixtures, a seed-initialised checkpoint and one warm-up call.

        The CLI writes a checkpoint only from `train`, so one step at lr 0,
        which leaves every parameter as initialised, writes it.
        """
        shutil.rmtree(self.setup_dir, ignore_errors=True)
        runner.must(Op("gen", self.setup_fixture.argv(self.seed, self.setup_fx)))
        records = json.loads((self.setup_fx / "manifest.json").read_text())
        first = self.setup_fx / "first.json"
        first.write_text(json.dumps(records[: self.setup_pairs]))
        init = self.setup_dir / "init.json"
        init.write_text(json.dumps({**self.setup_fixture.geometry, "seed": self.seed,
                                    "batch_size": self.setup_pairs, "steps": 1, "lr": 0.0}))
        runner.must(train_op(first, init, self.setup_ckpt, self.setup_pairs))
        runner.must(eval_op(first, self.setup_ckpt, self.setup_dir / "report.json", self.setup_pairs))

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def run_round(self, runner: Runner) -> list[Done]:
        self.round_dir.mkdir(parents=True, exist_ok=True)
        return [runner.execute(op) for op in self.round_ops()]

    # -- checks ----------------------------------------------------------------

    def check_round(self, done: list[Done]) -> None:
        """Cheap checks after every round: losses, recall, and that each
        output is byte-identical to the first round's."""
        if self.first_round is None:
            self.first_round = done
        for d, first in zip(done, self.first_round):
            if d.code != 0:
                continue
            if first.code == 0:
                require(d.digest == first.digest, f"{d.op.kind} {d.op.out}: output differs between rounds")
            if d.op.kind == "train":
                losses = loss_rows(d.op.out)
                require(all(math.isfinite(v) for v in losses), f"{d.op.out}/loss.csv: non-finite loss")
                self.check_steps(len(losses))
            if d.op.walkthrough:
                report = json.loads(Path(d.op.out).read_text())
                r1 = (report["t2v"]["r1"], report["v2t"]["r1"])
                require(r1 == (100.0, 100.0), f"{d.op.out}: walkthrough ends at R@1 {r1}")

    def check_steps(self, steps: int) -> None:
        pass

    def final_checks(self, runner: Runner, done: list[Done], traced: list[Done]) -> None:
        """Slower checks on the last round's outputs, made once after timing."""
        self.check_setup_checkpoint()
        for i, d in enumerate(done):
            if d.code != 0:
                continue
            rng = random.Random(f"{self.seed}-{i}")
            n = len(json.loads(Path(d.op.manifest).read_text())) if d.op.manifest else 0
            if d.op.kind == "eval":
                report = json.loads(Path(d.op.out).read_text())
                what = f"eval {d.op.manifest.name} ({d.op.params.name})"
                scores = runner.execute(score_op(d.op, self.work / f"check{i}.shet"))
                require(scores.code == 0, f"{what}: score exited {scores.code}: {scores.error}")
                s32 = reference.read_shet(scores.op.out)
                reference.check_report(report, s32, True, what)
                cells = reference.sample_cells(n, rng, 3)
                want = reference.reference_cells(d.op.manifest, d.op.params, cells)
                reference.check_cells(s32, want, True, what)
                matrix = traced[i].matrix if i < len(traced) else None
                if matrix is not None:
                    reference.check_report(report, matrix, False, what + " [float64]")
                    reference.check_cells(matrix, want, False, what + " [float64]")
            elif d.op.kind == "fuse":
                picks = sorted(rng.sample(range(n), min(3, n)))
                reference.check_fuse(d.op.manifest, d.op.params, d.op.out, picks,
                                     f"fuse {d.op.manifest.name}")

    def check_setup_checkpoint(self) -> None:
        from synret.params import init_params

        meta, tensors = reference.read_checkpoint(self.setup_ckpt)
        fresh = init_params(self.seed, meta["d"], heads=meta["heads"],
                            max_frames=meta["max_frames"], tau=meta["tau"])
        for name, value in fresh.named_tensors():
            require(bool((tensors[name] == value.astype("float32")).all()),
                    f"set-up checkpoint tensor {name} is not the seed-initialised value")


class GalleryRef(Workload):
    name = "gallery-ref"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.setup_fixture = Fixture(6, **SMOKE) if smoke else Fixture(100, **REF)

    def round_ops(self) -> list[Op]:
        manifest, n = self.setup_fx / "manifest.json", self.setup_fixture.pairs
        return [
            eval_op(manifest, self.setup_ckpt, self.round_dir / "report.json", n),
            fuse_op(manifest, self.setup_ckpt, self.round_dir / "fused", n),
        ]


class TrainRef(Workload):
    name = "train-ref"

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.setup_fixture = Fixture(8, **SMOKE) if smoke else Fixture(24, **REF)
        self.batch = 4 if smoke else 8
        self.steps = 2 if smoke else 8
        self.config = work / "train.json"

    def setup(self, runner):
        super().setup(runner)
        self.config.write_text(json.dumps({**self.setup_fixture.geometry, "seed": self.seed,
                                           "batch_size": self.batch, "steps": self.steps}))

    def round_ops(self) -> list[Op]:
        manifest, n = self.setup_fx / "manifest.json", self.setup_fixture.pairs
        ckpt = self.round_dir / "ckpt"
        return [
            train_op(manifest, self.config, ckpt, self.batch),
            eval_op(manifest, ckpt, self.round_dir / "report.json", n),
        ]

    def check_steps(self, steps):
        require(steps == self.steps, f"train ran {steps} steps, asked for {self.steps}")

    def final_checks(self, runner, done, traced):
        super().final_checks(runner, done, traced)
        self.probe_gradient()

    def probe_gradient(self) -> None:
        """Finite differences on the first batch `train` draws, at the
        seed-initialised parameters it starts from."""
        from synret.config import RunConfig
        from synret.dataset import load_bundles
        from synret.params import init_params
        from synret.rng import SplitMix64

        fx = self.setup_fixture
        bundles = load_bundles(self.setup_fx / "manifest.json")
        order = list(range(len(bundles)))
        SplitMix64(self.seed).shuffle(order)
        batch = [bundles[k] for k in order[: self.batch]]
        params = init_params(self.seed, fx.dim, max_frames=fx.frames)
        cfg = RunConfig(d=fx.dim, max_frames=fx.frames, seed=self.seed)
        reference.gradient_probe(batch, params, cfg)


class Desk(Workload):
    name = "desk"
    # The README walkthrough's fixture seed is 1. The walkthrough fixtures are
    # the same in every run because the number of steps to the stop loss
    # varies by seed; --seed picks the larger gallery.
    WALK_SEEDS = (1, 2, 3)

    def __init__(self, seed, smoke, work):
        super().__init__(seed, smoke, work)
        self.setup_fixture = Fixture(8, **DESK) if smoke else Fixture(48, **DESK)
        self.walk = Fixture(8, **DESK)
        self.walk_seeds = (4,) if smoke else self.WALK_SEEDS
        self.config = work / "train.json"

    def setup(self, runner):
        super().setup(runner)
        # The README config, with one batch holding all 8 pairs, so that the
        # stop loss bounds every pair's loss.
        self.config.write_text(json.dumps({**self.walk.geometry, "seed": 1,
                                           "batch_size": self.walk.pairs, "steps": 500,
                                           "lr": 1e-3, "stop_loss": 0.01}))

    def round_ops(self) -> list[Op]:
        ops = []
        gallery, n = self.setup_fx / "manifest.json", self.setup_fixture.pairs
        for s in self.walk_seeds:
            fx, ckpt = self.round_dir / f"fx{s}", self.round_dir / f"ckpt{s}"
            manifest = fx / "manifest.json"
            ops += [
                Op("gen", self.walk.argv(s, fx), out=fx),
                train_op(manifest, self.config, ckpt, self.walk.pairs),
                eval_op(manifest, ckpt, self.round_dir / f"report{s}.json", self.walk.pairs,
                        self.config, True),
                eval_op(gallery, ckpt, self.round_dir / f"gallery{s}.json", n, self.config),
            ]
        return ops

    def check_steps(self, steps):
        require(steps <= 500, f"train ran {steps} steps, more than 500")


WORKLOADS = {w.name: w for w in (GalleryRef, TrainRef, Desk)}
