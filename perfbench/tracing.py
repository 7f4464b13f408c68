"""Outside-in layer tracing for the benchmark.

Spans are recorded by wrapping the public functions and methods that
bound each layer, from this file only: nothing inside ``src/`` gains a
span.  Where no public call boundary separates two layers, the one span
the program already emits (``serve.fault_loop``) is read from
``repro.obs.spans`` and relabelled ``serving.fault_loop``.

A span is ``(name, start, end, pid, phase, count)``; ``phase`` is the
iteration id (or ``"setup"``) shared by every span of that iteration.
Parents are recovered from interval containment within one process,
which is exact because each process records from a single thread.
Spans stay in memory and are written out when the run ends.  Forked
shard workers inherit the installed wrappers; each worker appends its
spans to a file in the tracer's worker directory when its outermost span
closes, and the parent collects those files after the iteration.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


#: Every per-layer metric the traced run reports, in table order, mapped
#: to the prediction later performance changes cite: the end-to-end
#: metric (and workloads) a change to the layer moves.  Units and
#: directions live in ``BENCHMARK.json``.
LAYERS: dict[str, str] = {
    "streaming.generate_trace.self_s":
        "throughput_per_s on serve-stream and serve-sharded (in workers); negligible on serve-chaos",
    "dispatch_batch.kernel.self_s":
        "throughput_per_s on serve-stream and serve-sharded; zero on serve-chaos",
    "streaming.fold.self_s": "throughput_per_s on serve-stream and serve-sharded; not serve-chaos",
    "streaming.fold.calls": "same as streaming.fold.self_s",
    "serving.fault_loop.s": "throughput_per_s and peak_rss_mb on serve-chaos only",
    "serving.run.self_s":
        "throughput_per_s and peak_rss_mb on serve-chaos only (exact-report flush)",
    "streaming.materialize.self_s": "throughput_per_s and peak_rss_mb on serve-chaos only",
    "serving.report_read.self_s": "throughput_per_s and peak_rss_mb on serve-chaos only",
    "windows.monitor.self_s": "throughput_per_s on serve-chaos only",
    "windows.monitor.calls": "throughput_per_s on serve-chaos only",
    "chaos.kills": "behaviour count on serve-chaos: must not change",
    "chaos.retries": "behaviour count on serve-chaos: must not change",
    "chaos.requeues": "behaviour count on serve-chaos: must not change",
    "chaos.shed": "behaviour count on serve-chaos: must not change",
    "chaos.useful_ratio":
        "behaviour ratio on serve-chaos: completed / (completed + kills + retries)",
    "serving.prewarm.self_s": "setup_s on every serve-* workload",
    "serving.prewarm.pairs": "setup_s on every serve-* workload",
    "cluster.pool_start_s": "throughput_per_s on serve-sharded only",
    "cluster.serve_s": "throughput_per_s on serve-sharded only",
    "cluster.shard_busy_s": "throughput_per_s on serve-sharded only",
    "cluster.merge.self_s": "throughput_per_s on serve-sharded only",
    "cluster.wait_s": "throughput_per_s on serve-sharded only",
    "dse.candidates.self_s": "throughput_per_s on dse-table3-cold (small)",
    "dse.candidates.count": "throughput_per_s on dse-table3-cold and -warm",
    "dse.explore.self_s": "throughput_per_s on dse-table3-cold (small) and -warm",
    "tiling.plan_tiling.self_s":
        "throughput_per_s on dse-table3-cold (dominant); setup_s on serve-*; not dse-table3-warm",
    "tiling.plan_tiling.calls": "same as tiling.plan_tiling.self_s",
    "analytical_model.estimate.self_s": "throughput_per_s on dse-table3-cold; setup_s on serve-*",
    "analytical_model.estimate.calls": "same as analytical_model.estimate.self_s",
    "vectorized.batch_estimate.self_s":
        "throughput_per_s on dse-table3-cold once the explorer vectorizes; zero on the scalar default",
    "cache.hits": "throughput_per_s on dse-table3-warm",
    "cache.misses": "throughput_per_s on dse-table3-cold",
    "cache.hit_ratio": "throughput_per_s on dse-table3-warm (base: hits + misses)",
    "iteration.wall_s": "the traced iteration's wall time",
    "iteration.unattributed_s": "iteration wall not covered by any layer span",
    "tracing.overhead_ratio": "throughput lost to tracing: 1 - traced / untraced rate",
}

#: the span the program itself emits, read back under the layer name
PROGRAM_SPANS = {"serve.fault_loop": "serving.fault_loop"}

#: root span of one timed iteration (recorded by the runner)
ITERATION = "iteration"


@dataclass
class Span:
    name: str
    start: float
    end: float
    pid: int
    phase: str
    count: float | None = None
    parent: int | None = None
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, layer, count)`` for every wrapped call.

    ``owner`` is a class (the method is replaced on it) or a module (the
    function is replaced in every ``repro`` module that bound it).
    """
    from repro.core import analytical_model, dse
    from repro.mapping import tiling
    from repro.obs import windows
    from repro.perf import vectorized
    from repro.sim import cluster_serving, dispatch_batch, serving, streaming

    return [
        (streaming, "generate_trace_soa", "streaming.generate_trace", None),
        (streaming, "generate_trace_shard", "streaming.generate_trace", None),
        (dispatch_batch, "dispatch_vectorized", "dispatch_batch.kernel", None),
        (tiling, "plan_tiling", "tiling.plan_tiling", None),
        (vectorized, "batch_estimate", "vectorized.batch_estimate", None),
        (serving.ServingSimulator, "run", "serving.run", None),
        (serving.ServingSimulator, "prewarm", "serving.prewarm", lambda pairs: pairs),
        (streaming.SoATrace, "materialize", "streaming.materialize", None),
        (streaming.StreamingServingReport, "observe_batch", "streaming.fold", None),
        (streaming.StreamingServingReport, "merge", "cluster.merge", None),
        (windows.ServingMonitor, "observe_chunk", "windows.monitor", None),
        (windows.ServingMonitor, "observe_sheds", "windows.monitor", None),
        (windows.ServingMonitor, "observe_kills", "windows.monitor", None),
        (cluster_serving.ShardedServingCluster, "__init__", "cluster.build", None),
        (cluster_serving.ShardedServingCluster, "serve", "cluster.serve", None),
        (dse.DesignSpaceExplorer, "candidates", "dse.candidates", len),
        (dse.DesignSpaceExplorer, "explore", "dse.explore", None),
        (analytical_model.AnalyticalModel, "estimate", "analytical_model.estimate", None),
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, out_dir: Path):
        self.pid = os.getpid()
        # forked workers hand their spans over through files in here
        self.worker_dir = Path(out_dir) / f"workers-{self.pid}"
        self.phase: str | None = None
        self.spans: list[Span] = []
        self._depth = 0
        self._worker_pid: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _worker_reset(self, pid: int) -> None:
        """First span in a forked worker: drop the parent's inherited state."""
        self._worker_pid = pid
        self.spans = []
        self._depth = 0

    def _close(self, span: Span) -> None:
        self.spans.append(span)
        self._depth -= 1
        if span.pid != self.pid and self._depth == 0:
            self._flush_worker()

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(_span_row(span)) + "\n")
        self.spans = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block (no-op outside a traced phase).

        Yields the :class:`Span` (``None`` when not recording) so the
        caller can attach a count before it closes.
        """
        if self.phase is None:
            yield None
            return
        pid = os.getpid()
        if pid != self.pid and pid != self._worker_pid:
            self._worker_reset(pid)
        self._depth += 1
        span = Span(name, time.perf_counter(), 0.0, pid, self.phase)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._close(span)

    def _wrap(self, fn: Callable, layer: str, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as span:
                result = fn(*args, **kwargs)
                if span is not None and count is not None:
                    span.count = float(count(result))
                return result

        return traced

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary (idempotent)."""
        if self._patches:
            return
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for owner, attribute, layer, count in _targets():
            original = getattr(owner, attribute)
            wrapped = self._wrap(original, layer, count)
            if isinstance(owner, type):
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
                continue
            for module in modules:
                if getattr(module, attribute, None) is original:
                    self._patches.append((module, attribute, original))
                    setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    @contextmanager
    def phase_scope(self, phase: str, program_spans: bool = False):
        """Record every layer span opened inside the block under ``phase``.

        ``program_spans`` also collects the spans the program emits
        itself (see :data:`PROGRAM_SPANS`) through ``repro.obs.spans``.
        """
        from repro.obs.spans import GLOBAL_TRACER

        self.install()
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        if program_spans:
            GLOBAL_TRACER.enable()
        self.phase = phase
        try:
            with self.span(ITERATION if phase != "setup" else "setup"):
                yield
        finally:
            self.phase = None
            self.uninstall()
            if program_spans:
                GLOBAL_TRACER.disable()
                for recorded in GLOBAL_TRACER.drain():
                    name = PROGRAM_SPANS.get(recorded.name)
                    if name is not None:
                        self.spans.append(
                            Span(
                                name,
                                recorded.start + GLOBAL_TRACER.epoch,
                                recorded.end + GLOBAL_TRACER.epoch,
                                self.pid,
                                phase,
                            )
                        )
            self._collect_workers()

    def _collect_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    row = json.loads(line)
                    self.spans.append(
                        Span(row["name"], row["start"], row["end"], row["pid"],
                             row["phase"], row["count"])
                    )
            path.unlink()
        self.worker_dir.rmdir()

    def write(self, path: Path) -> None:
        """Write every recorded span (with parents) as JSON lines."""
        nest(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = _span_row(span)
                row.update(id=index, parent=span.parent, self_s=span.self_s)
                handle.write(json.dumps(row) + "\n")


def _span_row(span: Span) -> dict:
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "pid": span.pid,
        "phase": span.phase,
        "count": span.count,
    }


def nest(spans: list[Span]) -> None:
    """Set each span's parent index and self time from containment.

    Within one process and phase, spans from a single thread nest
    properly, so the innermost enclosing span is the parent and self time
    is the duration minus the children's durations.
    """
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i].pid, spans[i].phase, spans[i].start, -spans[i].end),
    )
    stack: list[int] = []
    for index in order:
        span = spans[index]
        span.self_s = span.duration
        span.parent = None
        while stack:
            top = spans[stack[-1]]
            if (top.pid, top.phase) == (span.pid, span.phase) and span.end <= top.end:
                break
            stack.pop()
        if stack:
            span.parent = stack[-1]
            spans[stack[-1]].self_s -= span.duration
        stack.append(index)


def _phase_totals(spans: Iterable[Span], parent_pid: int) -> dict[str, float]:
    """Per-layer totals for the spans of one phase."""
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    root = None
    serve = None
    first_worker_start = None
    worker_busy: dict[int, float] = {}
    for span in spans:
        add(f"{span.name}.self_s", span.self_s)
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.s", span.duration)
        if span.count is not None:
            add(f"{span.name}.count", span.count)
        if span.pid == parent_pid:
            if span.name in (ITERATION, "setup"):
                root = span
            elif span.name == "cluster.serve":
                serve = span
        else:
            if first_worker_start is None or span.start < first_worker_start:
                first_worker_start = span.start
            if span.parent is None:
                worker_busy[span.pid] = worker_busy.get(span.pid, 0.0) + span.duration
    if root is not None:
        totals["iteration.wall_s"] = root.duration
        totals["iteration.unattributed_s"] = root.self_s
    if serve is not None:
        startup = 0.0 if first_worker_start is None else first_worker_start - serve.start
        totals["cluster.pool_start_s"] = totals.get("cluster.build.s", 0.0) + startup
        totals["cluster.serve_s"] = serve.duration
        totals["cluster.wait_s"] = (
            serve.duration
            - totals.get("cluster.merge.self_s", 0.0)
            - max(worker_busy.values(), default=0.0)
        )
    return totals


def layer_metrics(
    spans: list[Span],
    parent_pid: int,
    counters: list[dict[str, float]],
    overhead_ratio: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """Every :data:`LAYERS` metric as ``(per-iteration median, set-up total)``.

    ``counters`` holds each traced iteration's behaviour counters (chaos,
    cache and shard-busy figures the workload reads from its outputs).
    The reported metric is the sum of the two parts; a layer that never
    ran on this workload reads 0.
    """
    nest(spans)
    by_phase: dict[str, list[Span]] = {}
    for span in spans:
        by_phase.setdefault(span.phase, []).append(span)
    setup_totals = _phase_totals(by_phase.pop("setup", []), parent_pid)
    per_iteration = [_phase_totals(group, parent_pid) for group in by_phase.values()]
    for totals, extra in zip(per_iteration, counters):
        totals.update(extra)
    # the prewarm span's count is the number of pairs it resolved
    aliases = {"serving.prewarm.pairs": "serving.prewarm.count"}
    iteration, setup = {}, {}
    for name in LAYERS:
        key = aliases.get(name, name)
        samples = [totals.get(key, 0.0) for totals in per_iteration] or [0.0]
        iteration[name] = statistics.median(samples)
        setup[name] = 0.0 if name.startswith("iteration.") else setup_totals.get(key, 0.0)
    iteration["tracing.overhead_ratio"] = overhead_ratio
    return iteration, setup


def layer_table(
    iteration: dict[str, float], setup: dict[str, float], workload: str, units: dict[str, str]
) -> str:
    """The human-readable per-layer table of one traced workload.

    ``units`` maps each layer to its unit; layers in seconds also get
    their share of the iteration wall.
    """
    wall = iteration["iteration.wall_s"]
    lines = [
        f"layer table: {workload} (per traced iteration: median; set-up: the traced set-up)",
        f"  {'layer':<34} {'iteration':>12} {'share':>7} {'set-up':>10}  moves",
    ]
    for name, moves in LAYERS.items():
        value = iteration[name]
        share = ""
        if units[name] == "s" and wall > 0 and not name.startswith("iteration."):
            share = f"{100.0 * value / wall:6.1f}%"
        lines.append(f"  {name:<34} {value:12.6g} {share:>7} {setup[name]:10.4g}  {moves}")
    lines.append(
        f"  unattributed residual: {iteration['iteration.unattributed_s']:.6g} s of "
        f"{wall:.6g} s iteration wall"
    )
    lines.append(
        f"  tracing overhead: {100.0 * iteration['tracing.overhead_ratio']:.2f}% "
        "of the untraced throughput (interleaved untraced iterations of this run)"
    )
    lines.append(
        "  on serve-sharded the worker layers (trace generation, kernel, fold, run) "
        "are summed over shards and overlap in time"
    )
    return "\n".join(lines)
