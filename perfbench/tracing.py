"""Spans and work counts recorded around the program's public stage functions.

Nothing inside `synret` is instrumented. While a Tracer is installed, each
stage function below is replaced, in every `synret` module that binds it, by
a wrapper that records a span (name, start, end, parent) and, for a few
stages, a work count. Spans stay in memory and are written when the run ends.
A stage the program no longer has, or no longer calls, reads as zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

from reference import LAMBDA_FRAME

# (module, function or Class.method) timed as a span
SPANS = [
    ("synret.dataset", "load_bundles"),
    ("synret.tensor_store", "read_tensor"),
    ("synret.tensor_store", "write_tensor"),
    ("synret.conllu", "parse_conllu"),
    ("synret.hierarchy", "build_hierarchy"),
    ("synret.params", "save_checkpoint"),
    ("synret.params", "load_checkpoint"),
    ("synret.params", "Adam.step"),
    ("synret.pipeline", "text_forward"),
    ("synret.pipeline", "video_forward"),
    ("synret.pipeline", "pair_forward"),
    ("synret.pipeline", "fuse_global"),
    ("synret.pipeline", "fuse_actions"),
    ("synret.pipeline", "fuse_entities"),
    ("synret.pipeline", "text_backward"),
    ("synret.pipeline", "video_backward"),
    ("synret.pipeline", "pair_backward"),
    ("synret.scoring", "score_matrix"),
    ("synret.scoring", "score_pair"),
    ("synret.scoring", "score_pair_backward"),
    ("synret.train", "evaluate_batch"),
    ("synret.train", "symmetric_ce_loss"),
    ("synret.blocks", "mlp_backward"),
    ("synret.metrics", "evaluate_matrix"),
]
# called too often and too briefly for a span: counted only
COUNTED = [("synret.blocks", "top_k_indices")]



def _count_loaded(tracer, args, kwargs, result):
    tracer.counts["pairs_loaded"] += len(result)


def _count_read(tracer, args, kwargs, result):
    tracer.counts["read_bytes"] += result.nbytes


def _count_written(tracer, args, kwargs, result):
    tensor = args[0] if args else kwargs["t"]
    tracer.counts["write_bytes"] += 4 * np.asarray(tensor).size


def _count_fuse_entities(tracer, args, kwargs, result):
    # each entity scores N_p patches of d values in min(lambda_frame, N_v)
    # frames: 2*d*n3*lambda_frame*N_p operations per pair
    e3, patches = args[0], args[1]
    n_frames, n_patches, d = patches.shape
    tracer.counts["fuse_entities_flop"] += 2 * d * e3.shape[0] * min(LAMBDA_FRAME, n_frames) * n_patches


def _count_cells(tracer, args, kwargs, result):
    tracer.counts["matrix_cells"] += len(args[0]) * len(args[1])
    tracer.last_matrix = result


HOOKS = {
    "dataset.load_bundles": _count_loaded,
    "tensor_store.read_tensor": _count_read,
    "tensor_store.write_tensor": _count_written,
    "pipeline.fuse_entities": _count_fuse_entities,
    "scoring.score_matrix": _count_cells,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.last_matrix = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t1 = time.perf_counter()
        self.end[idx] = t1
        _, covered = self._stack.pop()
        duration = t1 - self.start[idx]
        name = self.names[self.span_name[idx]]
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), span_name=np.asarray(self.span_name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))

    # -- wrapping ------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "synret" or n.startswith("synret."))]
        for targets, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, qualname in targets:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                name = module_name.removeprefix("synret.") + "." + qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is not None:
                        self._patch(owner, attr, make(original, name))
                    continue
                original = getattr(module, qualname, None)
                if original is None:
                    continue
                wrapper = make(original, name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tr: Tracer, pairs: int, steps: int, overhead_pct: float) -> dict:
    """Per-layer figures over the traced work.

    `pairs` and `steps` are the caption-video pairs and optimizer steps the
    traced CLI calls were asked for, counted by the benchmark.
    """

    def self_per_call(name, scale):
        return scale * tr.self_s[name] / tr.calls[name] if tr.calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def s(name):
        return tr.self_s[name]

    c = tr.counts
    return {
        "dataset.load_bundles_ms_per_pair": (1e3 * ratio(s("dataset.load_bundles"), c["pairs_loaded"]), "ms"),
        "tensor_store.read_mb_per_s": (ratio(c["read_bytes"] / 1e6, s("tensor_store.read_tensor")), "MB/s"),
        "tensor_store.write_mb_per_s": (ratio(c["write_bytes"] / 1e6, s("tensor_store.write_tensor")), "MB/s"),
        "tensor_store.read_mb": (c["read_bytes"] / 1e6, "MB"),
        "tensor_store.write_mb": (c["write_bytes"] / 1e6, "MB"),
        "hierarchy.build_us_per_caption": (
            1e6 * ratio(s("conllu.parse_conllu") + s("hierarchy.build_hierarchy"),
                        tr.calls["hierarchy.build_hierarchy"]), "us"),
        "params.save_checkpoint_s": (self_per_call("params.save_checkpoint", 1.0), "s"),
        "params.load_checkpoint_s": (self_per_call("params.load_checkpoint", 1.0), "s"),
        "params.adam_step_ms": (self_per_call("params.Adam.step", 1e3), "ms"),
        "pipeline.text_forward_ms_per_caption": (self_per_call("pipeline.text_forward", 1e3), "ms"),
        "pipeline.video_forward_ms_per_video": (self_per_call("pipeline.video_forward", 1e3), "ms"),
        "pipeline.fuse_global_us_per_pair": (self_per_call("pipeline.fuse_global", 1e6), "us"),
        "pipeline.fuse_actions_us_per_pair": (self_per_call("pipeline.fuse_actions", 1e6), "us"),
        "pipeline.fuse_entities_us_per_pair": (self_per_call("pipeline.fuse_entities", 1e6), "us"),
        "pipeline.fuse_entities_gflops_per_s": (
            ratio(c["fuse_entities_flop"] / 1e9, s("pipeline.fuse_entities")), "GFLOP/s"),
        "pipeline.fuse_entities_mflop_per_pair": (
            ratio(c["fuse_entities_flop"] / 1e6, tr.calls["pipeline.fuse_entities"]), "Mflop"),
        "pipeline.topk_calls_per_pair": (ratio(c["blocks.top_k_indices"], pairs), "count"),
        "pipeline.pair_forward_calls_per_pair": (ratio(tr.calls["pipeline.pair_forward"], pairs), "count"),
        "scoring.score_pair_us_per_pair": (self_per_call("scoring.score_pair", 1e6), "us"),
        "scoring.score_matrix_us_per_pair": (1e6 * ratio(s("scoring.score_matrix"), c["matrix_cells"]), "us"),
        "metrics.evaluate_matrix_ms": (self_per_call("metrics.evaluate_matrix", 1e3), "ms"),
        "train.evaluate_batch_ms_per_step": (1e3 * ratio(s("train.evaluate_batch"), steps), "ms"),
        "train.symmetric_ce_loss_us": (self_per_call("train.symmetric_ce_loss", 1e6), "us"),
        "pipeline.text_backward_ms_per_caption": (self_per_call("pipeline.text_backward", 1e3), "ms"),
        "pipeline.video_backward_ms_per_video": (self_per_call("pipeline.video_backward", 1e3), "ms"),
        "scoring.score_pair_backward_us_per_pair": (self_per_call("scoring.score_pair_backward", 1e6), "us"),
        "pipeline.pair_backward_us_per_pair": (self_per_call("pipeline.pair_backward", 1e6), "us"),
        "blocks.mlp_backward_ms_per_step": (1e3 * ratio(s("blocks.mlp_backward"), steps), "ms"),
        "blocks.mlp_backward_calls_per_step": (ratio(tr.calls["blocks.mlp_backward"], steps), "count"),
        "cli.other_s": (s("cli"), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
