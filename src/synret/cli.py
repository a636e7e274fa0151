"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Every subcommand accepts --config (JSON overrides of the printed defaults)
and writes only under paths named in its arguments.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import tempfile
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, TrainConfig, config_from_dict, dump_config, load_config
from .conllu import parse_conllu
from .dataset import load_bundles
from .errors import DataError, NumericalError, SynretError, UsageError
from .hierarchy import build_hierarchy, hierarchy_to_json
from .metrics import evaluate_matrix
from .params import init_params, load_checkpoint, save_checkpoint
from .pipeline import ENCODE_CHUNK, text_forward, video_forward
from .scoring import dsl_postprocess, fuse_pair, score_matrix
from .selfcheck import run_selfcheck
from .tensor_store import gen_fixture, write_file, write_tensor
from .train import train, write_loss_log


# glibc keeps freed arrays resident unless they sit at the heap's top, so a
# process running several commands would carry them into the next one's peak.
try:  # glibc only; elsewhere freed memory is left to the allocator
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (OSError, AttributeError):
    _malloc_trim = None


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

    c = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    common(c)
    return p


def _load_cfg(args) -> tuple[RunConfig, TrainConfig]:
    if getattr(args, "config", None):
        run, tr = load_config(args.config)
    else:
        run, tr = config_from_dict({})
    if getattr(args, "threads", None) is not None:
        run.threads = args.threads
    if getattr(args, "literal_patch_norm", False):
        run.literal_patch_norm = True
    run.validate()
    tr.validate()
    return run, tr


@contextmanager
def _writing(path):
    """An output that cannot be written is a usage error: the path came from
    the command line."""
    try:
        yield
    except OSError as e:
        raise UsageError(f"cannot write {e.filename or path}: {e.strerror or e}") from None


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_gen_fixtures(args) -> int:
    with _writing(args.out):
        manifest = gen_fixture(args.seed, args.pairs, args.tokens, args.frames,
                               args.patches, args.dim, args.out)
    print(manifest)
    return 0


def _cmd_build_hierarchy(args) -> int:
    try:
        raw = Path(args.conllu).read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read {args.conllu}: {e}") from None
    doc = hierarchy_to_json(build_hierarchy(parse_conllu(raw)))
    if args.out:
        with _writing(args.out):
            write_file(args.out, doc)
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_fuse(args) -> int:
    run, _ = _load_cfg(args)
    params = load_checkpoint(args.params)
    bundles = load_bundles(args.manifest)
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    index = {}
    for lo in range(0, len(bundles), ENCODE_CHUNK):
        chunk = bundles[lo:lo + ENCODE_CHUNK]
        tc, tape = text_forward(chunk, params)
        e3p, f3p = tape.e3p, tape.f3p
        del tape  # its backward caches would stay alive while the chunk is fused
        videos = video_forward(chunk, params)[0]
        for i, b in enumerate(chunk):
            cap, vid = tc.caption(i), videos[i]
            s3 = slice(tc.first3[i], tc.first3[i + 1])
            fp = fuse_pair(tc.single(i), vid, run)
            tensors = {
                "e1": cap.e1, "e2": cap.e2, "e3": cap.e3, "e3p": e3p[s3], "f3p": f3p[s3],
                "ev1": fp.ev1, "g": vid.g, "ev2": fp.ev2, "ev3": fp.ev3,
            }
            files = {name: f"{b.pair_id}.{name}.shet" for name in tensors}
            with _writing(out):
                for name, value in tensors.items():
                    write_tensor(value, out / files[name])
            index[b.pair_id] = {
                "tensors": files,
                "frame_selection": fp.frames.tolist(),
                "patch_selection": fp.patches.tolist(),
            }
    with _writing(out):
        write_file(out / "index.json", _json(index))
    print(f"wrote features for {len(bundles)} pairs to {out}")
    return 0


def _cmd_score(args) -> int:
    run, _ = _load_cfg(args)
    params = load_checkpoint(args.params)
    bundles = load_bundles(args.manifest)
    s = score_matrix(bundles, bundles, params, run)
    if args.dsl:
        s = dsl_postprocess(s, run.tau_dsl, "t2v")
    if not np.isfinite(s).all():
        raise NumericalError("score matrix contains non-finite values")
    sidecar = {
        "rows": [b.pair_id for b in bundles],
        "cols": [b.pair_id for b in bundles],
        "dsl": bool(args.dsl),
        "dsl_direction": "t2v" if args.dsl else None,
        "tau_dsl": run.tau_dsl if args.dsl else None,
        "literal_patch_norm": run.literal_patch_norm,
    }
    with _writing(args.out):
        write_tensor(s, args.out)
        write_file(str(args.out) + ".json", _json(sidecar))
    print(f"wrote {s.shape[0]}x{s.shape[1]} score matrix to {args.out}")
    return 0


def _cmd_train(args) -> int:
    run, tr = _load_cfg(args)
    bundles = load_bundles(args.manifest)
    d = bundles[0].d
    if run.d != d:
        raise DataError(f"dimension mismatch: config d={run.d}, manifest features d={d}")
    params = init_params(run.seed, run.d, heads=run.heads,
                         max_frames=run.max_frames, tau=run.tau)
    out = Path(args.out)
    with _writing(out):  # before step 1: an unusable --out must not cost a training run
        out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out).close()
    curve = train(bundles, params, run, tr)
    with _writing(out):
        save_checkpoint(params, out, seed=run.seed)
        write_loss_log(curve, out / "loss.csv")
    if curve:
        print(f"trained {len(curve)} steps, final loss {curve[-1][1]!r}; checkpoint in {out}")
    else:
        print(f"trained 0 steps; initial checkpoint in {out}")
    return 0


def _cmd_eval(args) -> int:
    run, _ = _load_cfg(args)
    params = load_checkpoint(args.params)
    bundles = load_bundles(args.manifest)
    s = score_matrix(bundles, bundles, params, run)
    if not np.isfinite(s).all():
        raise NumericalError("score matrix contains non-finite values")
    if args.dsl:
        report = evaluate_matrix(dsl_postprocess(s, run.tau_dsl, "t2v"),
                                 dsl_postprocess(s, run.tau_dsl, "v2t"))
    else:
        report = evaluate_matrix(s)
    report["dsl"] = bool(args.dsl)
    report["pairs"] = len(bundles)
    with _writing(args.report):
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
        args = parser.parse_args(argv)
        verbose = args.verbose
        if args.dump_config:
            run, tr = config_from_dict({})
            sys.stdout.write(dump_config(run, tr))
            return 0
        if not args.command:
            parser.print_help()
            return 1
        return _COMMANDS[args.command](args)
    except SynretError as e:
        print(f"synret: {e.label}: {e}", file=sys.stderr)
        if verbose:
            traceback.print_exc()
        return e.exit_code
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
