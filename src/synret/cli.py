"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error (a
non-finite value or a floating-point fault).
Every subcommand accepts --config (JSON overrides of the printed defaults)
and writes only under paths named in its arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import traceback
import warnings
from contextlib import contextmanager
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
from .params import init_params, load_checkpoint, save_checkpoint
from .pipeline import ENCODE_CHUNK, text_forward, video_forward
from .scoring import dsl_postprocess, fuse_pair, score_matrix
from .selfcheck import run_selfcheck
from .tensor_store import gen_fixture, write_file, write_tensor
from .train import train, write_loss_log


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

    c = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    common(c)
    return p


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "threads", None) is not None:
        cfg.threads = args.threads
    if getattr(args, "literal_patch_norm", False):
        cfg.literal_patch_norm = True
    cfg.validate()
    return cfg


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
    for flag in ("pairs", "tokens", "frames", "patches", "dim"):
        if getattr(args, flag) < 1:  # a bad flag is a usage error, raised before --out exists
            raise UsageError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    with _writing(args.out):
        manifest = gen_fixture(args.seed, args.pairs, args.tokens, args.frames,
                               args.patches, args.dim, args.out)
    print(manifest)
    return 0


def _cmd_build_hierarchy(args) -> int:
    try:  # bytes: parse_conllu reports input that is not UTF-8 as a data error
        raw = Path(args.conllu).read_bytes()
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
    cfg = _load_cfg(args)
    params = load_checkpoint(args.params)
    bundles = load_bundles(args.manifest)
    check_fits(bundles, params.d, params.max_frames)
    for b in bundles:  # read once now, so that a bad payload fails before the first write
        b.read_patches()
    out = Path(args.out)
    index = {}
    for lo in range(0, len(bundles), ENCODE_CHUNK):
        chunk = bundles[lo:lo + ENCODE_CHUNK]
        tc, tape = text_forward(chunk, params)
        e3p, f3p = tape.e3p, tape.f3p
        del tape  # its backward caches would stay alive while the chunk is fused
        videos = video_forward(chunk, params)[0]
        for i, b in enumerate(chunk):
            one, vid = tc.single(i), videos[i]
            s3 = slice(tc.first3[i], tc.first3[i + 1])
            fp = fuse_pair(one, vid, cfg)
            tensors = {
                "e1": one.e1[0], "e2": one.e2, "e3": one.e3, "e3p": e3p[s3], "f3p": f3p[s3],
                "ev1": fp.ev1, "g": vid.g, "ev2": fp.ev2, "ev3": fp.ev3,
            }
            files = {name: f"{b.pair_id}.{name}.shet" for name in tensors}
            with _writing(out):
                if not index:  # before the first write: the old index lists the old tensors
                    out.mkdir(parents=True, exist_ok=True)
                    (out / "index.json").unlink(missing_ok=True)
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


def _score_manifest(args, cfg: RunConfig, directions: tuple[str, ...]):
    """(bundles, matrices): the manifest's captions scored against its videos,
    under --dsl weighted by the dual-softmax prior once per direction. A
    non-finite result is one line of numerical error, with no numpy warning."""
    params = load_checkpoint(args.params)
    bundles = load_bundles(args.manifest)
    check_fits(bundles, params.d, params.max_frames)
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
    bundles, (s,) = _score_manifest(args, cfg, ("t2v",))
    sidecar = {
        "rows": [b.pair_id for b in bundles],
        "cols": [b.pair_id for b in bundles],
        "dsl": bool(args.dsl),
        "dsl_direction": "t2v" if args.dsl else None,
        "tau_dsl": cfg.tau_dsl if args.dsl else None,
        "literal_patch_norm": cfg.literal_patch_norm,
    }
    sidecar_path = Path(f"{args.out}.json")
    with _writing(args.out):
        write_tensor(s, args.out)  # whole or not at all: until it lands, the old sidecar holds
        sidecar_path.unlink(missing_ok=True)
        write_file(sidecar_path, _json(sidecar))
    print(f"wrote {s.shape[0]}x{s.shape[1]} score matrix to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cfg(args)
    bundles = load_bundles(args.manifest)
    check_fits(bundles, cfg.d, cfg.max_frames)
    params = init_params(cfg.seed, cfg.d, heads=cfg.heads,
                         max_frames=cfg.max_frames, tau=cfg.tau)
    out = Path(args.out)
    with _writing(out):  # before step 1: an unusable --out must not cost a training run
        made = [p for p in (out, *out.parents) if not p.exists()]
        out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out).close()
        for p in made:  # empty; save_checkpoint makes them again, so a failed run leaves none
            p.rmdir()
    curve = train(bundles, params, cfg)
    with _writing(out):  # loss.csv goes first and comes back last, as meta.json does
        (out / "loss.csv").unlink(missing_ok=True)
        save_checkpoint(params, out, seed=cfg.seed)
        write_loss_log(curve, out / "loss.csv")
    if curve:
        print(f"trained {len(curve)} steps, final loss {curve[-1][1]!r}; checkpoint in {out}")
    else:
        print(f"trained 0 steps; initial checkpoint in {out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    bundles, matrices = _score_manifest(args, cfg, ("t2v", "v2t"))
    report = evaluate_matrix(*matrices)
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
            sys.stdout.write(dump_config(RunConfig()))
            return 0
        if not args.command:
            parser.print_help()
            return 1
        # a floating-point fault is one line of numerical error, not a numpy
        # warning on stderr before an exit 0; underflow to zero stays silent
        with (np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"),
              warnings.catch_warnings()):
            warnings.simplefilter("always", DataWarning)  # every caption's, not the first only
            warnings.showwarning = _show_warning
            try:
                return _COMMANDS[args.command](args)
            except FloatingPointError as e:
                raise NumericalError(f"{args.command}: floating-point error: {e}") from None
    except SynretError as e:
        print(f"synret: {e.label}: {e}", file=sys.stderr)
        if verbose:
            traceback.print_exc()
        return e.exit_code
    finally:
        # glibc keeps freed arrays resident unless they sit at the heap's
        # top, so a process running several commands would carry them into
        # the next one's peak
        if _malloc_trim is not None:
            _malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
