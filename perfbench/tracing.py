"""Spans and counts recorded around spikeff's public functions, from outside.

Nothing under ``src/`` changes. Each traced function is replaced, for the
duration of a ``patched`` block, by a wrapper installed on the module
attribute that its caller looks the name up in (``spikeff.trainer.
layer_backward``, ``spikeff.network.layer_forward``, ``spikeff.neuron.
membrane_update``, ...). The wrapper opens a span (name, start, end, parent)
and adds counts measured at that boundary. Spans stay in memory until the
run writes them out.
"""

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[Span] = []
        self._layer_index: Dict[int, int] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def register(self, net) -> None:
        """Remember which position each layer object holds in its network."""
        for k, layer in enumerate(net.layers):
            self._layer_index[id(layer)] = k

    def layer_index(self, layer) -> int:
        return self._layer_index.get(id(layer), -1)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for sp in self.spans:
                f.write(json.dumps(asdict(sp)) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def children_of(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    kids: Dict[Optional[int], List[Span]] = defaultdict(list)
    for sp in spans:
        kids[sp.parent].append(sp)
    return kids


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus its child spans' durations.

    Spans come from one stack, so children nest inside their parent and
    never overlap each other.
    """
    child_seconds: Dict[Optional[int], float] = defaultdict(float)
    for sp in spans:
        child_seconds[sp.parent] += sp.duration
    return {sp.id: sp.duration - child_seconds[sp.id] for sp in spans}


def descendants(spans: Sequence[Span], root_id: int) -> List[Span]:
    kids = children_of(spans)
    out, todo = [], list(kids.get(root_id, ()))
    while todo:
        sp = todo.pop()
        out.append(sp)
        todo.extend(kids.get(sp.id, ()))
    return out


@dataclass
class SpanTotals:
    """Per span name: call count, inclusive seconds and self seconds."""

    calls: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)
    self: Counter = field(default_factory=Counter)


def totals(spans: Sequence[Span], self_by_id: Dict[int, float]) -> SpanTotals:
    out = SpanTotals()
    for sp in spans:
        out.calls[sp.name] += 1
        out.total[sp.name] += sp.duration
        out.self[sp.name] += self_by_id[sp.id]
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

# (module the caller looks the name up in, attribute, span name)
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("spikeff.trainer", "train_epoch", "trainer.train_epoch"),
    ("spikeff.trainer", "sample_hard_labels", "trainer.sample_hard_labels"),
    ("spikeff.trainer", "ff_loss", "trainer.ff_loss"),
    ("spikeff.trainer", "forward_train", "network.forward_train"),
    ("spikeff.trainer", "label_goodness", "network.label_goodness"),
    ("spikeff.trainer", "goodness", "layer.goodness"),
    ("spikeff.trainer", "layer_backward", "layer.backward"),
    ("spikeff.trainer", "adam_update", "numerics.adam_update"),
    ("spikeff.trainer", "embed_label", "dataio.embed_label"),
    ("spikeff.trainer", "iter_batches", "dataio.iter_batches"),
    ("spikeff.dataio", "embed_label", "dataio.embed_label"),
    ("spikeff.dataio", "make_temporal_dataset", "dataio.make_temporal_dataset"),
    ("spikeff.network", "forward_eval", "network.forward_eval"),
    ("spikeff.network", "layer_forward", "layer.forward"),
    ("spikeff.network", "embed_label", "dataio.embed_label"),
    ("spikeff.network", "goodness", "layer.goodness"),
    ("spikeff.neuron", "membrane_update", "neuron.membrane_update"),
    ("spikeff.neuron", "surrogate_grad", "neuron.surrogate_grad"),
    ("spikeff.predictor", "evaluate", "predictor.evaluate"),
    ("spikeff.predictor", "score_labels", "predictor.score_labels"),
    ("spikeff.predictor", "label_goodness", "network.label_goodness"),
    ("spikeff.predictor", "iter_batches", "dataio.iter_batches"),
    ("spikeff.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("spikeff.checkpoint", "load_checkpoint", "checkpoint.load"),
)
GENERATOR_SPANS = {"dataio.iter_batches"}


class Probes:
    """Counts measured at span boundaries, keyed by span name."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.last_scores: Optional[np.ndarray] = None

    def before(self, name: str, args, kwargs) -> dict:
        counts = self.tracer.counts
        if name == "layer.forward":
            layer, frames = args[0], args[1]
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "train")
            k = self.tracer.layer_index(layer)
            counts[f"layer{k}.forward.calls"] += 1
            counts[f"layer{k}.forward.shared"] += all(f is frames[0] for f in frames)
            return {"layer": k, "mode": mode}
        if name == "layer.backward":
            return {"layer": self.tracer.layer_index(args[0])}
        if name == "network.label_goodness":
            return {"rows_before": args[0].eval_rows}
        return {}

    def after(self, name: str, sp: Span, result, args) -> None:
        counts = self.tracer.counts
        if name == "layer.forward":
            k = sp.attrs["layer"]
            counts[f"layer{k}.spikes"] += float(result.counts.sum())
            counts[f"layer{k}.spike_slots"] += result.counts.size * len(args[1])
        elif name == "numerics.adam_update":
            # read param, grad and both moments; write both moments and param
            counts["numerics.adam_update.bytes"] += 7 * args[0].nbytes
        elif name == "network.label_goodness":
            net, batch = args
            counts["network.label_goodness.rows"] += (
                net.eval_rows - sp.attrs.pop("rows_before")
            )
            counts["network.label_goodness.samples"] += batch.size
            self.last_scores = result.copy()  # sample_hard_labels edits it
        elif name == "trainer.sample_hard_labels":
            batch = args[1]
            scores, rows = self.last_scores, np.arange(batch.size)
            scores[rows, batch.labels] = -np.inf
            hits = scores[rows, result] == scores.max(axis=1)
            counts["trainer.negatives"] += batch.size
            counts["trainer.negatives_top"] += int(hits.sum())
        elif name == "checkpoint.save":
            counts["checkpoint.bytes"] += os.path.getsize(args[0])


def _wrap(tracer: Tracer, probes: Probes, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, **probes.before(name, args, kwargs)) as sp:
            result = fn(*args, **kwargs)
            probes.after(name, sp, result, args)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """One span per item pulled, so each ``next`` is charged where it runs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items = fn(*args, **kwargs)
        while True:
            with tracer.span(name):
                try:
                    item = next(items)
                except StopIteration:
                    return
            yield item

    return wrapper


@contextmanager
def patched(replacements: Dict[Tuple[str, str], object]):
    """Set module attributes for the block and restore the originals after."""
    saved = []
    try:
        for (module_name, attr), value in replacements.items():
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def tracing(tracer: Tracer):
    """Context manager that installs a span wrapper at every site in SITES."""
    probes = Probes(tracer)
    replacements = {}
    for module_name, attr, name in SITES:
        original = getattr(importlib.import_module(module_name), attr)
        if name in GENERATOR_SPANS:
            replacements[(module_name, attr)] = _wrap_generator(tracer, name, original)
        else:
            replacements[(module_name, attr)] = _wrap(tracer, probes, name, original)
    return patched(replacements)


class StepClock:
    """Per-step wall times from the trainer pulling its next batch.

    The only hook of the untraced run: step i lasts from the pull that
    produced batch i to the pull that asks for batch i+1.
    """

    def __init__(self):
        self.seconds: List[float] = []
        self.sizes: List[int] = []

    def wrap(self, iter_batches):
        @functools.wraps(iter_batches)
        def wrapper(*args, **kwargs):
            pulled = time.perf_counter()
            for batch in iter_batches(*args, **kwargs):
                yield batch
                now = time.perf_counter()
                self.seconds.append(now - pulled)
                self.sizes.append(batch.size)
                pulled = now

        return wrapper

    def installed(self):
        trainer = importlib.import_module("spikeff.trainer")
        return patched({("spikeff.trainer", "iter_batches"): self.wrap(trainer.iter_batches)})
