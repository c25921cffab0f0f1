"""Per-layer metrics and the per-module table, computed from a traced run.

Training figures are per training step and come only from spans under the
traced training phase; eval figures are per eval batch and come from the
eval phase. A module's self time is the self time of all its spans.
"""

from collections import Counter
from typing import Dict, List, Tuple

from .tracing import Span, Tracer, descendants, self_times, totals

MODULES = ("trainer", "network", "layer", "neuron", "numerics", "dataio", "predictor")


def _under(spans: List[Span], name: str) -> List[Span]:
    """Every span below the first span called `name`."""
    root = next(sp for sp in spans if sp.name == name)
    return descendants(spans, root.id)


def _layer_seconds(spans: List[Span], name: str, k: int, mode=None) -> float:
    return sum(
        sp.duration
        for sp in spans
        if sp.name == name
        and sp.attrs.get("layer") == k
        and (mode is None or sp.attrs.get("mode") == mode)
    )


def per_layer_metrics(
    tracer: Tracer,
    train_counts: Counter,
    steps: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    spans = tracer.spans
    selfs = self_times(spans)
    train = _under(spans, "bench.train")
    tt = totals(train, selfs)
    ev = _under(spans, "bench.eval")
    et = totals(ev, selfs)
    step_s = tt.total["trainer.train_epoch"]
    eval_batches = et.calls["predictor.score_labels"]

    def per_step(value):
        return value / steps

    m = {
        "trainer.sample_hard_labels.s": per_step(tt.total["trainer.sample_hard_labels"]),
        "trainer.sample_hard_labels.self_s": per_step(tt.self["trainer.sample_hard_labels"]),
        "trainer.scoring_share": tt.total["trainer.sample_hard_labels"] / step_s,
        "trainer.forward_train_share": tt.total["network.forward_train"] / step_s,
        "trainer.backward_share": tt.total["layer.backward"] / step_s,
        "trainer.adam_share": tt.total["numerics.adam_update"] / step_s,
        "trainer.ff_loss.self_s": per_step(tt.self["trainer.ff_loss"]),
        "trainer.train_epoch.self_s": per_step(tt.self["trainer.train_epoch"]),
        "trainer.negative_hardness": train_counts["trainer.negatives_top"]
        / train_counts["trainer.negatives"],
        "trace_overhead_ratio": overhead_ratio,
        "network.label_goodness.self_s": per_step(tt.self["network.label_goodness"]),
        "network.label_goodness.rows_per_sample": train_counts[
            "network.label_goodness.rows"
        ]
        / train_counts["network.label_goodness.samples"],
        "network.forward_train.self_s": per_step(tt.self["network.forward_train"]),
        "network.forward_eval.self_s": per_step(tt.self["network.forward_eval"]),
    }
    for k in (0, 1):
        m[f"layer{k}.forward_train_s"] = per_step(
            _layer_seconds(train, "layer.forward", k, "train")
        )
        m[f"layer{k}.backward_s"] = per_step(_layer_seconds(train, "layer.backward", k))
        m[f"layer{k}.forward_eval_s"] = per_step(
            _layer_seconds(train, "layer.forward", k, "eval")
        )
        m[f"layer{k}.shared_frame_ratio"] = (
            train_counts[f"layer{k}.forward.shared"]
            / train_counts[f"layer{k}.forward.calls"]
        )
        m[f"layer{k}.spike_density"] = (
            train_counts[f"layer{k}.spikes"] / train_counts[f"layer{k}.spike_slots"]
        )
    for name in ("neuron.membrane_update", "neuron.surrogate_grad", "numerics.adam_update",
                 "dataio.embed_label"):
        m[f"{name}.self_s"] = per_step(tt.self[name])
        m[f"{name}.calls"] = per_step(tt.calls[name])
    m["numerics.adam_update.bytes"] = per_step(train_counts["numerics.adam_update.bytes"])
    m["dataio.iter_batches.self_s"] = per_step(tt.self["dataio.iter_batches"])
    m["dataio.setup_s"] = next(sp for sp in spans if sp.name == "bench.make_data").duration
    m["predictor.score_labels.self_s"] = et.self["predictor.score_labels"] / eval_batches
    m["predictor.evaluate.s"] = et.total["predictor.evaluate"] / eval_batches
    m["checkpoint.save_s"] = next(sp for sp in spans if sp.name == "checkpoint.save").duration
    m["checkpoint.load_s"] = next(sp for sp in spans if sp.name == "checkpoint.load").duration
    m["checkpoint.bytes"] = float(tracer.counts["checkpoint.bytes"])
    return m


def module_table(
    tracer: Tracer, phase: str, top: str, units: int
) -> List[Tuple[str, float, float]]:
    """Rows of (module, self seconds per unit of work, share) for one phase.

    `top` names the library call the phase is made of (``trainer.
    train_epoch`` or ``predictor.evaluate``); shares are of the time spent
    inside those calls, so they sum to 1.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    inside = _under(spans, phase)
    by_module: Counter = Counter()
    for sp in inside:
        by_module[sp.name.split(".", 1)[0]] += selfs[sp.id]
    whole = sum(sp.duration for sp in inside if sp.name == top)
    return [
        (mod, by_module[mod] / units, by_module[mod] / whole)
        for mod in MODULES
        if by_module[mod]
    ]
