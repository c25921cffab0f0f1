"""spikeff train/eval throughput benchmark.

    python3 perfbench/run.py --workload static-784 --seed 1 --seconds 30 --trace 0

Runs one workload in this process against the package under ``src/`` of
the checkout this file sits in. With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` it wraps the package's public
functions in spans and prints the per-layer metrics and per-module tables.
Either way it checks the outputs, writes a result file (and, traced, the
spans) under ``perfbench/out/``, prints one JSON object as its last line and
exits non-zero if any operation or check failed. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# The untraced run interleaves set-ups, training epochs and eval passes over
# the whole of --seconds, so that every metric samples the host over the
# same window. Each kind of work gets its share of the time since it became
# possible (eval: once the first schedule is trained and reloaded), by
# running next whichever kind is furthest behind its share.
SHARES = {"setup": 0.05, "train": 0.5, "eval": 0.45}
TRACED_SHARES = (0.3, 0.45, 0.25)  # untraced train, traced train, traced eval


def metric_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f if "openblas" in ln and "/" in ln}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted and failed: train steps, eval batches, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _add(self, count: int, error) -> bool:
        self.attempted += count
        if error:
            self.failed += 1
            self.problems.append(error)
        return not error

    def train(self, run) -> bool:
        return self._add(len(run.step_seconds) + (run.error is not None), run.error)

    def evaluate(self, run) -> bool:
        passes = len(run.pass_seconds) + (run.error is not None)
        return self._add(run.batches * passes, run.error)

    def checks(self, checks) -> None:
        for c in checks:
            self._add(1, None if c.ok else f"{c.name}: {c.detail}")


def interleaved(w, args, workdir: Path):
    """Set up, train and evaluate in turn for about --seconds.

    Stops before a piece of work that, as long as its last one, would
    overrun --seconds, once a first schedule is trained and evaluated, or
    as soon as training or eval fails. Returns the set-up times, data-step
    times, the training run, the network saved to the checkpoint and the
    eval run of its reload (both None if no schedule completed).
    """
    from perfbench import measure

    setup_s, data_s = [], []
    start = time.perf_counter()
    prep = measure.set_up(w, args.seed)
    setup_s.append(prep.seconds)
    data_s.append(prep.data_seconds)
    train, saved, ev = measure.TrainRun(w, prep, args.seed), None, None
    since = {"setup": start, "train": start}
    spent = {"setup": prep.seconds, "train": 0.0, "eval": 0.0}
    last = dict(spent)
    while True:
        now = time.perf_counter()
        overdue = now - start > args.seconds
        if overdue and ev is None:
            kind = "train"
        elif overdue and not ev.pass_seconds:
            kind = "eval"
        else:
            due = {k: SHARES[k] * (now - since[k]) - spent[k] for k in since}
            kind = max(due, key=due.get)
            if ev and ev.pass_seconds and now - start + last[kind] > args.seconds:
                return setup_s, data_s, train, saved, ev
        t0 = time.perf_counter()
        if kind == "setup":
            again = measure.set_up(w, args.seed)
            setup_s.append(again.seconds)
            data_s.append(again.data_seconds)
        elif kind == "train":
            if not train.epoch():
                return setup_s, data_s, train, saved, ev
        elif not ev.one_pass():
            return setup_s, data_s, train, saved, ev
        last[kind] = time.perf_counter() - t0
        spent[kind] += last[kind]
        if ev is None and train.schedules:
            saved = train.final_net
            ev = measure.EvalRun(
                measure.round_trip(saved, workdir / "net.sffc"), prep.held_out
            )
            since["eval"] = time.perf_counter()


def untraced_run(w, args, workdir: Path, ops: Ops):
    from perfbench import measure

    setup_s, data_s, train, saved, ev = interleaved(w, args, workdir)
    if not ops.train(train):
        return None, {}
    if not ops.evaluate(ev):
        return None, {}
    checks = measure.check_outputs(saved, ev.net, ev.held_out, train.epoch_losses)
    ops.checks(checks)
    pct, tail, n = measure.tail_percentile(train.step_seconds)
    metrics = {
        "train_samples_per_s": train.samples_per_s,
        "train_step_s_p50": statistics.median(train.step_seconds),
        "train_step_s_tail": tail,
        "eval_samples_per_s": ev.samples_per_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_loss_final_negated": -train.final_loss,
        "eval_accuracy": ev.accuracy,
        "op_success_ratio": 1.0 - ops.failed / ops.attempted,
    }
    details = {
        "train_steps": n,
        "train_step_seconds": train.step_seconds,
        "train_step_s_tail_percentile": pct,
        "train_schedules_completed": train.schedules,
        "train_epochs": len(train.epoch_losses),
        "train_loss_final": train.final_loss,
        "eval_pass_seconds": ev.pass_seconds,
        "eval_samples": ev.samples,
        "setup_s_each": setup_s,
        "setup_data_s_each": data_s,
        "op_failure_ratio": ops.failed / ops.attempted,
        "checks": [c.__dict__ for c in checks],
    }
    return metrics, details


def traced_run(w, args, workdir: Path, out: Path, ops: Ops):
    from perfbench import measure, report, tracing

    untraced_s, traced_s, eval_s = (share * args.seconds for share in TRACED_SHARES)
    tracer = tracing.Tracer()
    with tracing.tracing(tracer), tracer.span("bench.setup"):
        prep = measure.set_up(w, args.seed, tracer)
    plain = measure.train_for(w, prep, args.seed, untraced_s)
    if not ops.train(plain):
        return None, {}
    with tracing.tracing(tracer):
        before = Counter(tracer.counts)
        with tracer.span("bench.train"):
            train = measure.train_for(w, prep, args.seed, traced_s, tracer)
        train_counts = Counter(tracer.counts)
        train_counts.subtract(before)
        if not ops.train(train):
            return None, {}
        with tracer.span("bench.checkpoint"):
            loaded = measure.round_trip(train.final_net, workdir / "net.sffc")
        tracer.register(loaded)
        with tracer.span("bench.eval"):
            ev = measure.evaluate_for(loaded, prep.held_out, eval_s)
    if not ops.evaluate(ev):
        return None, {}
    checks = measure.check_outputs(
        train.final_net, loaded, prep.held_out, train.epoch_losses
    )
    ops.checks(checks)
    steps = len(train.step_seconds)
    metrics = report.per_layer_metrics(
        tracer, train_counts, steps, train.samples_per_s / plain.samples_per_s
    )
    step_table = report.module_table(tracer, "bench.train", "trainer.train_epoch", steps)
    eval_table = report.module_table(
        tracer, "bench.eval", "predictor.evaluate", ev.batches * len(ev.pass_seconds)
    )
    spans_path = out / f"{w.name}_seed{args.seed}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    details = {
        "traced_steps": steps,
        "untraced_steps": len(plain.step_seconds),
        "train_samples_per_s_untraced": plain.samples_per_s,
        "train_samples_per_s_traced": train.samples_per_s,
        "step_table": step_table,
        "eval_table": eval_table,
        "spans_file": str(spans_path),
        "span_count": len(tracer.spans),
        "checks": [c.__dict__ for c in checks],
    }
    return metrics, details


def _print_table(title: str, rows, unit: str) -> None:
    print(f"{title}")
    print(f"  {'module':<10} {'self ' + unit:>16} {'share':>7}")
    for mod, seconds, share in rows:
        print(f"  {mod:<10} {seconds:>16.6f} {share:>7.1%}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spikeff" / "__init__.py").is_file():
        print(f"perfbench: no spikeff package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import spikeff

    if Path(spikeff.__file__).resolve().parent != SRC / "spikeff":
        print(f"perfbench: imported spikeff from {spikeff.__file__}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out = OUT
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(args)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    ops = Ops()
    try:
        if args.trace:
            metrics, details = traced_run(w, args, workdir, out, ops)
        else:
            metrics, details = untraced_run(w, args, workdir, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = ops.failed == 0 and metrics is not None
    print(f"perfbench {w.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "git_commit"):
        print(f"  {key}: {env[key]}")
    for problem in ops.problems:
        print(f"FAILED: {problem}")
    if metrics:
        width = max(len(k) for k in units)
        for name, unit in units.items():
            print(f"  {name:<{width}} {metrics[name]:>14.6g} {unit}")
    if args.trace and metrics:
        _print_table("per training step (traced):", details["step_table"], "s/step")
        _print_table("per eval batch (traced):", details["eval_table"], "s/batch")
    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        }
        if metrics
        else {},
    }
    result_path = out / f"{w.name}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(
        json.dumps({"environment": env, **result, "details": details,
                    "problems": ops.problems}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
