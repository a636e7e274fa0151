"""Command-line interface.

Exit codes: 0 success, 1 usage error (among them an output, a file or
stdout, that cannot be written or is one of the run's inputs, and running
out of memory), 2 data error, 3 numerical error (a non-finite value or a
floating-point fault). fuse, score, train and eval accept --config; every
subcommand writes only under paths named in its arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, dump_config, load_config
from .conllu import parse_conllu
from .dataset import check_fits, load_bundles
from .errors import DataError, DataWarning, NumericalError, SynretError, UsageError
from .hierarchy import build_hierarchy, hierarchy_to_json
from .metrics import evaluate_matrix
from .parallel import malloc_trim as _malloc_trim
from .params import checkpoint_files, init_params, load_checkpoint, save_checkpoint
from .pipeline import text_forward, video_forward
from .scoring import dsl_postprocess, fuse_pair, gallery_chunks, score_matrix
from .selfcheck import run_selfcheck
from .tensor_store import gen_fixture, write_file, write_set, write_tensor
from .train import loss_log, train


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A DataWarning is one line on stderr, as an error is; any other warning
    is shown as Python shows it."""
    if issubclass(category, DataWarning):
        print(f"synret: warning: {message}", file=sys.stderr)
    else:
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="synret", description=__doc__)
    p.add_argument("--version", action="version", version=f"synret {__version__}")
    p.add_argument("--verbose", action="store_true", help="print tracebacks on errors")
    p.add_argument("--dump-config", action="store_true",
                   help="print the full default configuration as JSON and exit")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--config", help="JSON file overriding default configuration")
        sp.add_argument("--threads", type=int,
                        help="accepted for compatibility (must be >= 1); changes neither "
                        "speed nor output")

    g = sub.add_parser("gen-fixtures", help="write a seeded synthetic dataset")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--pairs", type=int, required=True)
    g.add_argument("--tokens", type=int, default=6, help="caption length N_t")
    g.add_argument("--frames", type=int, default=4, help="frames per video N_v")
    g.add_argument("--patches", type=int, default=9, help="patches per frame N_p")
    g.add_argument("--dim", type=int, default=16, help="feature width d")
    g.add_argument("--out", required=True, help="output directory")

    b = sub.add_parser("build-hierarchy", help="build the caption hierarchy from a parse")
    b.add_argument("conllu", help="input CoNLL-U file")
    b.add_argument("-o", "--out", help="output JSON path (default: stdout)")

    f = sub.add_parser("fuse", help="write per-pair fused features")
    common(f)
    f.add_argument("--manifest", required=True)
    f.add_argument("--params", required=True, help="checkpoint directory")
    f.add_argument("--out", required=True, help="output directory")
    f.add_argument("--literal-patch-norm", action="store_true",
                   help="use the fixed 1/lambda_patch frame-average normalizer")

    s = sub.add_parser("score", help="write the caption x video score matrix")
    common(s)
    s.add_argument("--manifest", required=True)
    s.add_argument("--params", required=True)
    s.add_argument("--out", required=True, help="output .shet path (JSON sidecar alongside)")
    s.add_argument("--dsl", action="store_true",
                   help="apply dual-softmax prior weighting (caption-to-video direction)")
    s.add_argument("--literal-patch-norm", action="store_true")

    t = sub.add_parser("train", help="train the fusion modules on a manifest")
    common(t)
    t.add_argument("--manifest", required=True)
    t.add_argument("--out", required=True, help="checkpoint output directory")

    e = sub.add_parser("eval", help="retrieval metrics for both directions")
    common(e)
    e.add_argument("--manifest", required=True)
    e.add_argument("--params", required=True)
    e.add_argument("--report", required=True, help="output report JSON path")
    e.add_argument("--dsl", action="store_true")
    e.add_argument("--literal-patch-norm", action="store_true")

    sub.add_parser("selfcheck", help="run the built-in invariant suite")
    return p


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "threads", None) is not None:
        cfg.threads = args.threads
    if getattr(args, "literal_patch_norm", False):
        cfg.literal_patch_norm = True
    cfg.validate()
    return cfg


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _refuse_inputs(outputs, inputs) -> None:
    """Before a command reads a patch payload: an output that is one of its inputs
    is a usage error. Each path is stat'ed once; (device, inode) sees through links."""
    taken = {os.stat(p)[1:3] for p in inputs if p}  # (st_ino, st_dev) of each file read
    for out in filter(None, outputs):
        with suppress(OSError):  # an output that cannot be stat'ed is no input
            if os.stat(out)[1:3] in taken:
                raise UsageError(f"cannot write {out}: it is one of this run's inputs")


def _load(args, params, ckpt=()):
    """The manifest's bundles, checked to fit `params`, and the run's inputs:
    --config, the manifest and every file its records name, and `ckpt`."""
    bundles = load_bundles(args.manifest)
    check_fits(bundles, params.d, params.max_frames)
    return bundles, [args.config, args.manifest, *(f for b in bundles for f in b.files), *ckpt]


def _cmd_gen_fixtures(args) -> int:
    for flag in ("pairs", "tokens", "frames", "patches", "dim"):
        if getattr(args, flag) < 1:  # a bad flag is a usage error, raised before --out exists
            raise UsageError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if 8 * args.dim * max(args.tokens + 1, args.frames * args.patches) > sys.maxsize:
        raise UsageError("the fixture's arrays would not fit in the address space")
    manifest = gen_fixture(args.seed, args.pairs, args.tokens, args.frames,
                           args.patches, args.dim, args.out)
    print(manifest)
    return 0


def _cmd_build_hierarchy(args) -> int:
    try:  # bytes: parse_conllu reports input that is not UTF-8 as a data error
        raw = Path(args.conllu).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {args.conllu}: {e}") from None
    _refuse_inputs([args.out], [args.conllu])
    doc = hierarchy_to_json(build_hierarchy(parse_conllu(raw)))
    if args.out:
        write_file(args.out, doc)
    else:
        print(doc, end="")  # not sys.stdout.write: sys.stdout is None if fd 1 was closed
    return 0


_FUSED = ("e1", "e2", "e3", "e3p", "f3p", "ev1", "g", "ev2", "ev3")  # a pair's tensors, in order


def _fuse_chunk(chunk, params, cfg) -> list[tuple[tuple, dict]]:
    """Per pair of the chunk, its tensors in `_FUSED` order and its selections.
    The tensors are the float32 arrays that are written: float64 views would
    keep the chunk's encoder outputs alive until the last write."""
    tc, tape = text_forward(chunk, params)
    e3p, f3p = tape.e3p, tape.f3p
    del tape  # its backward caches would stay alive while the chunk is fused
    fused = []
    for i, vid in enumerate(video_forward(chunk, params)[0]):
        one, s3 = tc.single(i), slice(tc.first3[i], tc.first3[i + 1])
        fp = fuse_pair(one, vid, cfg)
        with np.errstate(over="ignore"):  # an overflow to inf is refused by `write_set`
            tensors = tuple(t.astype(np.float32) for t in (one.e1[0], one.e2, one.e3, e3p[s3],
                                                           f3p[s3], fp.ev1, vid.g, fp.ev2, fp.ev3))
        fused.append((tensors, {"frame_selection": fp.frames.tolist(),
                                "patch_selection": fp.patches.tolist()}))
    return fused


def _cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    params = load_checkpoint(args.params)
    bundles, inputs = _load(args, params, checkpoint_files(args.params, params))
    files = [[f"{b.pair_id}.{name}.shet" for name in _FUSED] for b in bundles]
    _refuse_inputs([Path(args.out, f) for names in (*files, ["index.json"]) for f in names], inputs)
    chunks = gallery_chunks(lambda chunk: _fuse_chunk(chunk, params, cfg), bundles, params)
    tensors, index = {}, {}
    for b, names, (fused, picks) in zip(bundles, files, [pair for chunk in chunks for pair in chunk]):
        tensors.update(zip(names, fused))
        index[b.pair_id] = {"tensors": dict(zip(_FUSED, names)), **picks}
    write_set(args.out, tensors, {"index.json": _json(index)})  # after the last pair is fused
    print(f"wrote features for {len(bundles)} pairs to {args.out}")
    return 0


def _score_manifest(args, cfg: RunConfig, directions: tuple[str, ...], outputs: tuple):
    """(bundles, matrices): the manifest's captions scored against its videos,
    under --dsl weighted by the dual-softmax prior once per direction. A
    non-finite result is one line of numerical error, with no numpy warning."""
    params = load_checkpoint(args.params)
    bundles, inputs = _load(args, params, checkpoint_files(args.params, params))
    _refuse_inputs(outputs, inputs)
    matrices = [score_matrix(bundles, bundles, params, cfg)]
    if args.dsl:
        with np.errstate(over="ignore", invalid="ignore"):
            matrices = [dsl_postprocess(matrices[0], cfg.tau_dsl, d) for d in directions]
    if not all(np.isfinite(m).all() for m in matrices):
        dsl = f" under the DSL prior at tau_dsl={cfg.tau_dsl!r}" if args.dsl else ""
        raise NumericalError(f"score matrix contains non-finite values{dsl}")
    return bundles, matrices


def _cmd_score(args) -> int:
    cfg = _load_cfg(args)
    sidecar_path = Path(f"{args.out}.json")
    bundles, (s,) = _score_manifest(args, cfg, ("t2v",), (args.out, sidecar_path))
    sidecar = {
        "rows": [b.pair_id for b in bundles],
        "cols": [b.pair_id for b in bundles],
        "dsl": bool(args.dsl),
        "dsl_direction": "t2v" if args.dsl else None,
        "tau_dsl": cfg.tau_dsl if args.dsl else None,
        "literal_patch_norm": cfg.literal_patch_norm,
    }
    write_tensor(s, args.out)  # whole or not at all: until it lands, the old sidecar holds
    sidecar_path.unlink(missing_ok=True)
    write_file(sidecar_path, _json(sidecar))
    print(f"wrote {s.shape[0]}x{s.shape[1]} score matrix to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    params = init_params(cfg.seed, cfg.d, heads=cfg.heads,
                         max_frames=cfg.max_frames, tau=cfg.tau)
    bundles, inputs = _load(args, params)
    out = Path(args.out)
    _refuse_inputs([out / "loss.csv", *checkpoint_files(out, params)], inputs)
    made = [p for p in (out, *out.parents) if not p.exists()]  # --out is checked before step 1
    out.mkdir(parents=True, exist_ok=True)
    tempfile.TemporaryFile(dir=out).close()
    for p in made:  # empty; save_checkpoint makes them again, so a failed run leaves none
        p.rmdir()
    curve = train(bundles, params, cfg)
    save_checkpoint(params, out, seed=cfg.seed, texts={"loss.csv": loss_log(curve)})
    if curve:
        print(f"trained {len(curve)} steps, final loss {curve[-1][1]!r}; checkpoint in {out}")
    else:
        print(f"trained 0 steps; initial checkpoint in {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    bundles, matrices = _score_manifest(args, cfg, ("t2v", "v2t"), (args.report,))
    report = evaluate_matrix(*matrices)
    report["dsl"] = bool(args.dsl)
    report["pairs"] = len(bundles)
    write_file(args.report, _json(report))
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_selfcheck(_args) -> int:
    failures = run_selfcheck()
    return 0 if failures == 0 else 2


_COMMANDS = {
    "gen-fixtures": _cmd_gen_fixtures,
    "build-hierarchy": _cmd_build_hierarchy,
    "fuse": _cmd_fuse,
    "score": _cmd_score,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "selfcheck": _cmd_selfcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    verbose = False
    try:
        # a floating-point fault is one line of numerical error, not a numpy
        # warning on stderr before an exit 0; underflow to zero stays silent
        with (np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"),
              warnings.catch_warnings()):
            warnings.simplefilter("always", DataWarning)  # every caption's, not the first only
            warnings.showwarning = _show_warning
            try:
                args = parser.parse_args(argv)
                verbose = args.verbose
                if args.dump_config:
                    print(dump_config(RunConfig()), end="")
                    return 0
                if not args.command:
                    parser.print_help()
                    return 1
                return _COMMANDS[args.command](args)
            except FloatingPointError as e:
                raise NumericalError(f"{args.command}: floating-point error: {e}") from None
            finally:  # a closed stdout fails here, not at exit; print skips a None stdout
                print(end="", flush=True)
    except (SynretError, OSError, MemoryError) as e:
        # each read turns its OSError into a DataError: an OSError here is a failed write
        err = e if isinstance(e, SynretError) else UsageError(
            f"cannot write {e.filename or 'stdout'}: {e.strerror or e}" if isinstance(e, OSError)
            else "out of memory" + (f": {e}" if str(e) else ""))
        print(f"synret: {err.label}: {err}", file=sys.stderr)
        if verbose:
            traceback.print_exc()
        if isinstance(e, OSError) and e.filename is None:  # stdout: its flush at exit goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return err.exit_code
    finally:
        # glibc keeps freed arrays resident unless they sit at the heap's
        # top, so a process running several commands would carry them into
        # the next one's peak
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
