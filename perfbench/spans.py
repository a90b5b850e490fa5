"""Layer spans recorded from outside the program.

A Tracer substitutes each traced metabdc function in every metabdc module
namespace that binds it (methods on their class), records one span per
call in memory, and puts every original object back when it is done. The
program itself is not edited: the spans sit at the boundaries between its
modules, which are the layers the benchmark reports.

A span is (name, start, end, parent). Its self time is its duration minus
the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

# (defining module, attribute, span name); a dotted attribute is a method
TARGETS = (
    ("metabdc.core.graph", "forward_eval", "core.graph.forward"),
    ("metabdc.core.graph", "backward", "core.graph.backward"),
    ("metabdc.core.rng", "SeededRng.generator", "core.rng.generator"),
    ("metabdc.imageops", "resize_bilinear", "imageops.resize_bilinear"),
    ("metabdc.data", "generate_synthetic", "data.generate_synthetic"),
    ("metabdc.data", "preprocess_dataset", "data.preprocess_dataset"),
    ("metabdc.data", "split_dataset", "data.split_dataset"),
    ("metabdc.data", "sample_episode", "data.sample_episode"),
    ("metabdc.encoder", "init_params", "encoder.init_params"),
    ("metabdc.encoder", "encode", "encoder.encode"),
    ("metabdc.bdc", "bdc_matrix", "bdc.bdc_matrix"),
    ("metabdc.bdc", "class_prototypes", "bdc.class_prototypes"),
    ("metabdc.bdc", "episode_classify", "bdc.episode_classify"),
    ("metabdc.metrics", "auroc_multiclass_ovr", "metrics.auroc_multiclass_ovr"),
    ("metabdc.optim", "sgd_step", "optim.sgd_step"),
    ("metabdc.ssl", "augment_views", "ssl.augment_views"),
    ("metabdc.ssl", "update_representation", "ssl.update_representation"),
    ("metabdc.ssl", "find_partition_embeddings", "ssl.find_partition_embeddings"),
    ("metabdc.ssl", "eval_partition_objective", "ssl.eval_partition_objective"),
    ("metabdc.ssl", "pretrain", "ssl.pretrain"),
    ("metabdc.finetune", "meta_finetune", "finetune.meta_finetune"),
    ("metabdc.finetune", "evaluate_episodes", "finetune.evaluate_episodes"),
    ("metabdc.finetune", "evaluate_episode", "finetune.evaluate_episode"),
    ("metabdc.experiment", "prepare_splits", "experiment.prepare_splits"),
    ("metabdc.experiment", "pretrain_encoder", "experiment.pretrain_encoder"),
    ("metabdc.experiment", "finetune_cell", "experiment.finetune_cell"),
    ("metabdc.experiment", "test_cell", "experiment.test_cell"),
)

# time spent in the tracer's own counting hooks, kept out of the layers' self time
HOOK_SPAN = "trace.hooks"

LEAF_OPS = frozenset({"input", "param", "const"})
ELEMENTWISE_OPS = frozenset(
    {"add", "sub", "mul", "div", "neg", "pow_const", "exp", "log", "relu", "sigmoid", "sqrt_guard"}
)
NODE_KINDS = ("conv2d", "matmul", "gather", "logsumexp", "concat", "elementwise", "other")

# Phases report the inclusive time of their spans; every other `.s` metric
# is self time. Phase spans wrap whole stages, so their self time is ~0.
PHASES = (
    "experiment.prepare_splits",
    "experiment.pretrain_encoder",
    "experiment.finetune_cell",
    "experiment.test_cell",
)
# evaluate_episodes under meta_finetune is validation; under test_cell it is the test
EVAL_PHASES = {"finetune.val": "finetune.meta_finetune", "finetune.test": "experiment.test_cell"}

SELF_TIMED = (
    "core.graph.forward",
    "core.graph.backward",
    "core.rng.generator",
    "imageops.resize_bilinear",
    "ssl.augment_views",
    "ssl.find_partition_embeddings",
    "ssl.update_representation",
    "ssl.pretrain",
    "data.sample_episode",
    "encoder.encode",
    "bdc.bdc_matrix",
    "bdc.class_prototypes",
    "bdc.episode_classify",
    "metrics.auroc_multiclass_ovr",
    "finetune.meta_finetune",
    "finetune.evaluate_episode",
    "optim.sgd_step",
)
CALL_COUNTED = (
    "core.graph.forward",
    "core.graph.backward",
    "core.rng.generator",
    "imageops.resize_bilinear",
    "ssl.augment_views",
    "ssl.find_partition_embeddings",
    "ssl.eval_partition_objective",
    "ssl.update_representation",
    "data.sample_episode",
    "encoder.encode",
    "bdc.bdc_matrix",
    "bdc.episode_classify",
    "metrics.auroc_multiclass_ovr",
    "finetune.evaluate_episode",
    "optim.sgd_step",
)
COUNTERS = (
    "core.graph.forward.nodes",
    "core.graph.backward.nodes",
    *(f"core.graph.nodes.{kind}" for kind in NODE_KINDS),
    "ssl.augment_views.images",
    "ssl.update_representation.steps",
    "encoder.encode.images",
    "finetune.episode_steps",
)
# measured on the set-up, once per run, not per unit
SETUP_TIMED = ("data.generate_synthetic", "data.preprocess_dataset", "data.split_dataset")


def _layer_metric_names() -> list[tuple[str, str]]:
    names = [(f"{n}.calls", "count") for n in CALL_COUNTED]
    names += [(f"{n}.s", "s") for n in SELF_TIMED]
    names += [(c, "count") for c in COUNTERS]
    names += [("encoder.encode.distinct_ratio", "ratio")]
    names += [(f"{n}.s", "s") for n in (*PHASES, *EVAL_PHASES, *SETUP_TIMED)]
    names += [("trace.overhead_frac", "ratio"), ("trace.coverage_frac", "ratio")]
    return sorted(names)


# every per-layer metric a traced run prints, with its unit
LAYER_METRICS = _layer_metric_names()


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _params_fingerprint(params) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(params):
        h.update(key.encode())
        h.update(params[key].tobytes())
    return h.digest()


class Tracer:
    """In-memory span recorder for one process; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._encoded: set[tuple[bytes, bytes]] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def caller(self) -> str | None:
        """Inside a counting hook: the span that called the traced function."""
        return self.names[self.name[self._stack[-2]]] if len(self._stack) >= 2 else None

    # -- counting hooks, called with the traced function's arguments

    def _count_forward(self, graph, feeds=None) -> None:
        ops = Counter(node.op for node in graph.nodes)
        nodes = 0
        for op, n in ops.items():
            if op in LEAF_OPS:
                continue
            nodes += n
            kind = op if op in NODE_KINDS else "elementwise" if op in ELEMENTWISE_OPS else "other"
            self.counters[f"core.graph.nodes.{kind}"] += n
        self.counters["core.graph.forward.nodes"] += nodes

    def _count_backward(self, graph, loss) -> None:
        swept = graph.nodes[: loss.idx + 1]
        self.counters["core.graph.backward.nodes"] += sum(1 for node in swept if node.parents)

    def _count_augment(self, images, config, rng) -> None:
        self.counters["ssl.augment_views.images"] += len(images)

    def _count_encode(self, images, config, params) -> None:
        self.counters["encoder.encode.images"] += len(images)
        version = _params_fingerprint(params)
        for img in images:
            self._encoded.add((version, hashlib.blake2b(img.tobytes(), digest_size=16).digest()))

    def _count_sgd(self, params, grads, lr, weight_decay=0.0) -> None:
        caller = self.caller()
        if caller == "ssl.update_representation":
            self.counters["ssl.update_representation.steps"] += 1
        elif caller == "finetune.meta_finetune":
            self.counters["finetune.episode_steps"] += 1

    def distinct_encoded(self) -> int:
        return len(self._encoded)

    def _hook(self, span_name: str):
        return {
            "core.graph.forward": self._count_forward,
            "core.graph.backward": self._count_backward,
            "ssl.augment_views": self._count_augment,
            "encoder.encode": self._count_encode,
            "optim.sgd_step": self._count_sgd,
        }.get(span_name)

    def _wrap(self, fn, span_name: str):
        tracer = self
        span_id = self.name_id(span_name)
        hook = self._hook(span_name)
        hook_id = self.name_id(HOOK_SPAN)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                h = tracer.open(hook_id)
                hook(*args, **kwargs)
                tracer.close(h)
            idx = tracer.open(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    @contextmanager
    def installed(self):
        """Substitute every target wherever a metabdc module binds it; restore
        every substituted attribute on exit, also when the body raises."""
        saved: list[tuple[object, str, object]] = []
        try:
            modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "metabdc" and m]
            for module_name, attr, span_name in TARGETS:
                owner, leaf = _resolve(module_name, attr)
                original = getattr(owner, leaf)
                wrapper = self._wrap(original, span_name)
                if owner is sys.modules[module_name]:
                    bindings = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
                else:
                    bindings = [(owner, leaf)]
                for obj, key in bindings:
                    saved.append((obj, key, original))
                    setattr(obj, key, wrapper)
            yield self
        finally:
            for obj, key, original in reversed(saved):
                setattr(obj, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name):
            row = out.setdefault(self.names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        for phase, caller in EVAL_PHASES.items():
            row = out.setdefault(phase, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            for i, nid in enumerate(self.name):
                p = self.parent[i]
                if self.names[nid] == "finetune.evaluate_episodes" and p >= 0 and self.names[self.name[p]] == caller:
                    row["calls"] += 1
                    row["incl_s"] += self.end[i] - self.start[i]
        return out

    def spans(self) -> dict[str, list]:
        return {
            "name": [self.names[i] for i in self.name],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }


def unit_layer_metrics(tracer: Tracer, summary: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced unit from its span summary and the
    tracer's counters (set-up and overhead metrics are the caller's)."""
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for n in CALL_COUNTED:
        out[f"{n}.calls"] = summary.get(n, zero)["calls"]
    for n in SELF_TIMED:
        out[f"{n}.s"] = summary.get(n, zero)["self_s"]
    for n in (*PHASES, *EVAL_PHASES):
        out[f"{n}.s"] = summary.get(n, zero)["incl_s"]
    for c in COUNTERS:
        out[c] = tracer.counters[c]
    images = tracer.counters["encoder.encode.images"]
    out["encoder.encode.distinct_ratio"] = tracer.distinct_encoded() / images if images else 0.0
    out["trace.coverage_frac"] = sum(row["self_s"] for row in summary.values()) / wall_s
    return out
