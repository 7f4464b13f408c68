"""Serving simulation: GEMM request streams over a partition.

A deployed Versal board serves a *stream* of inference requests, not one
workload; what matters operationally is tail latency versus offered
load.  This module generates deterministic pseudo-random request traces
(exponential-ish inter-arrivals from a hash-based LCG — no global RNG,
fully reproducible), dispatches each request to the partition
accelerator that finishes it earliest, and reports throughput and
latency percentiles.

The three dispatch engines all produce **byte-identical** decisions:

* the seed scan (``dispatch="scan"``) — the original O(requests x
  accelerators) loop, kept as the ground truth and benchmark baseline;
* the table engine (``dispatch="table"``) — per-shape-class service
  tables resolved once per ``(accelerator, shape)`` pair and a dense
  earliest-finish loop in pure Python: the portable path for hosts
  without a C compiler;
* the vectorized engine (``dispatch="vectorized"``) — the native k-wide
  C kernel over the SoA trace (:mod:`repro.sim.dispatch_batch`),
  retiring a whole chunk of requests per interpreter round-trip.

``dispatch="auto"`` (the default) runs the vectorized engine whenever
the kernel compiled and the table engine otherwise, at every partition
width, with or without faults.

``run(..., streaming=True)`` feeds dispatched chunks straight into a
:class:`~repro.sim.streaming.StreamingServingReport` — O(1) memory in
the trace length, with the sketch's documented percentile error bound —
and :func:`load_sweep` drives the offered-load -> tail-latency curve
the paper's serving discussion is about, with saturation-knee detection
and an early exit once throughput plateaus.

``run(..., faults=...)`` injects a time-varying
:class:`~repro.sim.chaos.FaultSchedule` (accelerators go down and come
back, or serve through degraded :class:`~repro.hw.specs.DeviceSpec`
variants mid-run) under a :class:`~repro.sim.chaos.FaultPolicy`:
executions a ``down`` window interrupts are killed and retried with
exponential backoff, failing over to surviving accelerators, and shed
with accounting once the retry budget is exhausted or nothing feasible
remains.  All three engines implement **identical** fault semantics
(enforced by ``tests/conformance``); ``faults=None`` or an empty
schedule takes the untouched fault-free paths, byte for byte.

Fault-run semantics, precisely:

* A dispatch *attempt* at time ``t`` considers each feasible
  accelerator with ``start = max(t, free)``; the accelerator is skipped
  when ``start`` falls in a ``down`` window or its degraded service is
  unresolvable.  Service is resolved **at admission**: the window the
  start instant falls in fixes the service time, even if the execution
  outlives the window.  The winner minimizes ``(finish, scan order)`` —
  the same tie-break as fault-free dispatch.
* Dispatch is not prescient: if the chosen accelerator's next ``down``
  window opens strictly between start and finish, the execution is
  *killed* at the window start, the accelerator's clock advances to it,
  and the request retries after ``policy.backoff(retries)`` — or is
  shed (``retry_budget_exhausted``) past ``policy.max_retries``.
* An attempt with no usable accelerator *requeues* (no retry consumed)
  to the schedule's next state transition; when no transition remains
  the request is shed (``no_feasible_accelerator``).  A shape no
  accelerator can serve even fault-free raises ``ValueError`` exactly
  like the fault-free path.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.core.multi_acc import AcceleratorPartition
from repro.obs.spans import GLOBAL_TRACER, span
from repro.perf.metrics import GLOBAL_STATS, EvalStats, FaultStats, track
from repro.perf.parallel import parallel_map, resolve_jobs
from repro.sim.chaos import (
    DEFAULT_FAULT_POLICY,
    FaultError,
    FaultPolicy,
    FaultSchedule,
)
from repro.sim.dispatch_batch import (
    dispatch_segment,
    dispatch_vectorized,
    native_available,
    require_native,
)
from repro.sim.streaming import (
    FaultAccounting,
    SoATrace,
    StreamingServingReport,
    derive_seed,
    generate_trace_soa,
)
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.slo import SloSpec
    from repro.obs.windows import ServingMonitor

#: requests buffered between streaming-report flushes (bounds memory)
DISPATCH_CHUNK = 65536

_DISPATCH_MODES = ("auto", "vectorized", "table", "scan")


def _resolve_engine(dispatch: str) -> str:
    """The engine a ``dispatch`` mode runs on.

    ``auto`` is the native kernel when it compiled and the portable
    table engine otherwise; an explicit ``vectorized`` without the
    kernel raises instead of falling back.
    """
    if dispatch == "auto":
        return "vectorized" if native_available() else "table"
    if dispatch == "vectorized":
        require_native(dispatch)
    return dispatch


@dataclass(frozen=True)
class Request:
    """One GEMM request with its arrival time."""

    request_id: int
    shape: GemmShape
    arrival: float


@dataclass(frozen=True)
class CompletedRequest:
    request: Request
    accelerator: str
    start: float
    finish: float
    #: executions killed by down windows before this one completed
    retries: int = 0

    @property
    def latency(self) -> float:
        return self.finish - self.request.arrival

    @property
    def queueing_delay(self) -> float:
        return self.start - self.request.arrival


def _feed_monitor(
    monitor: "ServingMonitor",
    arrivals: np.ndarray,
    starts: np.ndarray,
    finishes: np.ndarray,
    chunk_size: int,
) -> None:
    """Feed final outcomes to a monitor in arrival-ordered blocks.

    Used by engines without a flush hook (scan, the fault loop): the
    ``chunk_size`` blocks match the boundaries the fast engines flush
    at, so the folded series are chunk-for-chunk the same.
    """
    for lo in range(0, len(arrivals), chunk_size):
        hi = lo + chunk_size
        monitor.observe_chunk(arrivals[lo:hi], starts[lo:hi], finishes[lo:hi])


@dataclass(frozen=True)
class ShedRequest:
    """A request dropped with accounting instead of completed."""

    request: Request
    retries: int
    #: ``retry_budget_exhausted`` or ``no_feasible_accelerator``
    reason: str
    #: when the shedding decision was made
    time: float


#: rows per block when the lazy ``completed`` objects are built, so the
#: temporaries of one block's ``tolist`` conversions stay small
_ROW_BLOCK = 65536


class ServingReport(FaultAccounting):
    """Exact serving report: every completed request, held as arrays.

    The engines fill one structure of arrays in arrival order: the
    completed requests' arrival-order positions in the trace, their
    arrival, accelerator index, start, finish and retry columns, the
    shed and kill/requeue records, and a reference to the served trace.
    Every reader — makespan, percentiles, mean latency, loads, retries,
    fault accounting, throughput — works on the arrays; the
    per-request :attr:`completed`, :attr:`shed` and
    :attr:`fault_timeline` objects are built on first access only.

    ``ServingReport(completed=[...], shed=[...])`` builds the same
    arrays from request objects (and keeps the given objects as its
    rows).
    """

    def __init__(
        self,
        completed: Sequence[CompletedRequest] = (),
        shed: Sequence[ShedRequest] = (),
        fault_events: Sequence = (),
        downtime: dict[str, float] | None = None,
        kills: int = 0,
        requeues: int = 0,
        fault_timeline: Sequence = (),
    ):
        completed = list(completed)
        shed = list(shed)
        names = list(dict.fromkeys(c.accelerator for c in completed))
        index = {name: order for order, name in enumerate(names)}
        converted = ServingReport.from_arrays(
            [c.request for c in completed] + [s.request for s in shed],
            names,
            np.arange(len(completed)),
            np.asarray([c.request.arrival for c in completed], dtype=np.float64),
            np.asarray([index[c.accelerator] for c in completed], dtype=np.int64),
            np.asarray([c.start for c in completed], dtype=np.float64),
            np.asarray([c.finish for c in completed], dtype=np.float64),
            np.asarray([c.retries for c in completed], dtype=np.int64),
            shed_records=[
                (len(completed) + offset, s.retries, s.reason, s.time)
                for offset, s in enumerate(shed)
            ],
            fault_events=fault_events,
            downtime=downtime,
            kills=kills,
            requeues=requeues,
        )
        self.__dict__.update(converted.__dict__)
        # the given objects are the report's rows
        self.__dict__.update(
            completed=completed, shed=shed, fault_timeline=list(fault_timeline)
        )

    @classmethod
    def from_arrays(
        cls,
        source: Union[Sequence[Request], SoATrace],
        names: Sequence[str],
        positions: np.ndarray,
        arrivals: np.ndarray,
        accelerators: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
        retries: np.ndarray | None = None,
        *,
        shed_records: Sequence[tuple[int, int, str, float]] = (),
        timeline: Sequence[tuple[float, str, int, int]] = (),
        fault_events: Sequence = (),
        downtime: dict[str, float] | None = None,
        kills: int = 0,
        requeues: int = 0,
    ) -> "ServingReport":
        """The report an engine fills.

        Row ``i`` is the request at arrival-order ``positions[i]`` of
        ``source`` (an ``SoATrace`` or the arrival-sorted ``Request``
        list), arriving at ``arrivals[i]`` and served on
        ``names[accelerators[i]]``.  ``shed_records`` are
        position-ordered ``(position, retries, reason, time)`` and
        ``timeline`` the ``(time, kind, position, retries)`` decision
        log.
        """
        report = cls.__new__(cls)
        report._source = source
        report.accelerator_names = list(names)
        report._positions = positions
        report._arrivals = arrivals
        report._accelerators = accelerators
        report._starts = starts
        report._finishes = finishes
        report._retries = (
            np.zeros(len(positions), dtype=np.int64) if retries is None else retries
        )
        report._shed_records = list(shed_records)
        report._timeline = list(timeline)
        #: fault onset/clearance records, ordered by time
        report.fault_events = list(fault_events)
        #: per-accelerator seconds spent down within the makespan
        report.downtime = dict(downtime or {})
        #: executions killed mid-flight by a down window
        report.kills = kills
        #: attempts deferred because no accelerator was usable
        report.requeues = requeues
        return report

    def _requests_at(self, positions) -> list[Request]:
        """The ``Request`` objects at arrival-order ``positions``."""
        positions = np.asarray(positions, dtype=np.int64)
        source = self._source
        if isinstance(source, SoATrace):
            shapes = source.shapes
            return list(
                map(
                    Request,
                    positions.tolist(),
                    [shapes[sid] for sid in source.shape_ids[positions].tolist()],
                    source.arrivals[positions].tolist(),
                )
            )
        return [source[pos] for pos in positions.tolist()]

    # -- per-request objects (built on first access) --------------------
    @cached_property
    def completed(self) -> list[CompletedRequest]:
        """One :class:`CompletedRequest` per completed request, in
        arrival order."""
        names = self.accelerator_names
        rows: list[CompletedRequest] = []
        for lo in range(0, self.count, _ROW_BLOCK):
            hi = lo + _ROW_BLOCK
            rows.extend(
                map(
                    CompletedRequest,
                    self._requests_at(self._positions[lo:hi]),
                    [names[order] for order in self._accelerators[lo:hi].tolist()],
                    self._starts[lo:hi].tolist(),
                    self._finishes[lo:hi].tolist(),
                    self._retries[lo:hi].tolist(),
                )
            )
        return rows

    @cached_property
    def shed(self) -> list[ShedRequest]:
        """Requests dropped under the fault policy (empty on fault-free
        runs), in arrival order."""
        records = self._shed_records
        requests = self._requests_at([record[0] for record in records])
        return [
            ShedRequest(request, retries, reason, when)
            for request, (_, retries, reason, when) in zip(requests, records)
        ]

    @cached_property
    def fault_timeline(self) -> list[tuple[float, str, int, int]]:
        """Chaos-loop decision log, ``(time, kind, request_id, retries)``
        with kind in {"kill", "requeue"}, time-ordered — the trace
        exporter renders these as instant markers (sheds carry their own
        records)."""
        requests = self._requests_at([entry[2] for entry in self._timeline])
        return sorted(
            (when, kind, request.request_id, retries)
            for (when, kind, _, retries), request in zip(self._timeline, requests)
        )

    # -- array readers ---------------------------------------------------
    @property
    def count(self) -> int:
        """Completed requests."""
        return len(self._positions)

    @property
    def makespan(self) -> float:
        return float(self._finishes.max()) if self.count else 0.0

    def _availability_horizon(self) -> float:
        return self.makespan

    @property
    def shed_count(self) -> int:
        return len(self._shed_records)

    @property
    def total_retries(self) -> int:
        return int(self._retries.sum()) + sum(
            record[1] for record in self._shed_records
        )

    @property
    def throughput_rps(self) -> float:
        if self.makespan == 0:
            return 0.0
        return self.count / self.makespan

    def latencies(self) -> np.ndarray:
        """Per-request latency (finish - arrival), in arrival order."""
        return self._finishes - self._arrivals

    def queueing_delays(self) -> np.ndarray:
        """Per-request queueing delay (start - arrival), in arrival order."""
        return self._starts - self._arrivals

    @cached_property
    def _sorted_latencies(self) -> np.ndarray:
        # the rows are frozen after construction, so the sort is cached
        # instead of being redone on every percentile
        return np.sort(self.latencies())

    def latency_percentile(self, percentile: float) -> float:
        return self.latency_percentiles([percentile])[0]

    def latency_percentiles(self, percentiles: Sequence[float]) -> list[float]:
        """Batch percentile accessor over the cached sorted latencies."""
        for percentile in percentiles:
            if not 0 < percentile <= 100:
                raise ValueError("percentile must be in (0, 100]")
        if not self.count:
            raise ValueError("no completed requests")
        latencies = self._sorted_latencies
        count = len(latencies)
        return [
            float(latencies[min(count - 1, math.ceil(percentile / 100 * count) - 1)])
            for percentile in percentiles
        ]

    def mean_latency(self) -> float:
        if not self.count:
            raise ValueError("no completed requests")
        # the builtin left-to-right sum, not NumPy's pairwise one: the
        # same bits as summing the per-request latencies in order
        return sum(self.latencies().tolist()) / self.count

    def accelerator_load(self) -> dict[str, int]:
        """Completions per accelerator, in order of first appearance."""
        accelerators = self._accelerators
        counts = np.bincount(
            accelerators, minlength=len(self.accelerator_names)
        ).tolist()
        used = [order for order, num in enumerate(counts) if num]
        used.sort(key=lambda order: int(np.argmax(accelerators == order)))
        return {self.accelerator_names[order]: counts[order] for order in used}


def _lcg_uniform(seed: int, index: int) -> float:
    """Deterministic uniform in (0, 1) from a splitmix-style hash."""
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return ((x & 0xFFFFFFFF) + 1) / (2**32 + 2)


def generate_trace(
    shapes: Sequence[GemmShape],
    num_requests: int,
    mean_interarrival: float,
    seed: int = 0,
) -> list[Request]:
    """An exponential-interarrival request trace over a shape mix.

    The scalar reference: :func:`~repro.sim.streaming.generate_trace_soa`
    produces the same trace bit-identically as a structure-of-arrays
    (the log is evaluated through ``np.log`` here precisely so both
    paths share one float64 log implementation).
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if mean_interarrival <= 0:
        raise ValueError("mean inter-arrival must be positive")
    if not shapes:
        raise ValueError("need at least one shape")
    requests = []
    clock = 0.0
    for index in range(num_requests):
        clock += -mean_interarrival * float(np.log(_lcg_uniform(seed, 2 * index)))
        shape = shapes[int(_lcg_uniform(seed, 2 * index + 1) * len(shapes))]
        requests.append(Request(request_id=index, shape=shape, arrival=clock))
    return requests


def _dispatch_table_pair(arrivals, class_ids, svc0, svc1, free, flush, chunk_size):
    """Two-accelerator earliest-finish dispatch, fully unrolled.

    The hot loop of the common case (a two-way partition where every
    class is feasible on both accelerators): the scheduler state lives
    in two locals, the per-class service times in two flat lists, and
    iteration runs over chunk slices so the loop body carries no bounds
    checks.  Decisions are byte-identical to the seed scan (strictly
    earlier finish wins; ties go to the first accelerator).
    """
    n = len(arrivals)
    free0, free1 = free
    for lo in range(0, n, chunk_size):
        hi = lo + chunk_size
        out_acc: list[int] = []
        out_start: list[float] = []
        out_fin: list[float] = []
        acc_append = out_acc.append
        start_append = out_start.append
        fin_append = out_fin.append
        for arrival, cid in zip(arrivals[lo:hi], class_ids[lo:hi]):
            start0 = arrival if arrival > free0 else free0
            finish0 = start0 + svc0[cid]
            start1 = arrival if arrival > free1 else free1
            finish1 = start1 + svc1[cid]
            if finish1 < finish0:
                free1 = finish1
                acc_append(1)
                start_append(start1)
                fin_append(finish1)
            else:
                free0 = finish0
                acc_append(0)
                start_append(start0)
                fin_append(finish0)
        flush(lo, out_acc, out_start, out_fin)
    free[0] = free0
    free[1] = free1


def _dispatch_table(arrivals, class_ids, specs, free, flush, chunk_size):
    """Dense earliest-finish dispatch (byte-identical to the seed scan).

    ``specs[c]`` is a flat ``(acc, service, acc, service, ...)`` tuple in
    the scan's accelerator iteration order; single- and dual-accelerator
    classes (the common partitions) are unrolled.
    """
    used = {spec for spec in specs if spec}
    if len(free) == 2 and all(len(spec) == 4 for spec in used):
        svc0 = [spec[1] if spec else math.inf for spec in specs]
        svc1 = [spec[3] if spec else math.inf for spec in specs]
        _dispatch_table_pair(arrivals, class_ids, svc0, svc1, free, flush, chunk_size)
        return
    infinity = math.inf
    n = len(arrivals)
    for lo in range(0, n, chunk_size):
        hi = lo + chunk_size
        out_acc: list[int] = []
        out_start: list[float] = []
        out_fin: list[float] = []
        acc_append = out_acc.append
        start_append = out_start.append
        fin_append = out_fin.append
        for arrival, cid in zip(arrivals[lo:hi], class_ids[lo:hi]):
            spec = specs[cid]
            width = len(spec)
            if width == 4:
                acc = spec[0]
                idle = free[acc]
                start0 = arrival if arrival > idle else idle
                finish0 = start0 + spec[1]
                acc1 = spec[2]
                idle = free[acc1]
                start1 = arrival if arrival > idle else idle
                finish1 = start1 + spec[3]
                if finish1 < finish0:
                    best_acc, best_start, best_finish = acc1, start1, finish1
                else:
                    best_acc, best_start, best_finish = acc, start0, finish0
            elif width == 2:
                best_acc = spec[0]
                idle = free[best_acc]
                best_start = arrival if arrival > idle else idle
                best_finish = best_start + spec[1]
            else:
                best_finish = infinity
                best_acc = -1
                best_start = 0.0
                for offset in range(0, width, 2):
                    acc = spec[offset]
                    idle = free[acc]
                    start = arrival if arrival > idle else idle
                    finish = start + spec[offset + 1]
                    if finish < best_finish:
                        best_finish, best_acc, best_start = finish, acc, start
            free[best_acc] = best_finish
            acc_append(best_acc)
            start_append(best_start)
            fin_append(best_finish)
        flush(lo, out_acc, out_start, out_fin)


class _FaultView:
    """Fast time-indexed queries over a fault schedule for one partition.

    Window lookups are bisections over per-accelerator sorted arrays;
    degraded service times are resolved once per ``(accelerator, window,
    shape class)`` and cached — ``DeviceSpec`` is unhashable, so the
    cache keys on positions, not objects.  Accelerators whose *healthy*
    device cannot serve a shape class stay infeasible for it in every
    window (degraded hardware never unlocks new shapes), which keeps the
    scan and table selectors' candidate sets identical by construction.
    """

    def __init__(self, simulator, schedule, names, classes, specs):
        self.names = names
        self.classes = classes
        self.partition = simulator.partition
        width = len(names)
        # base (healthy) service per [order][class]; None = infeasible
        self.base: list[list[float | None]] = [
            [None] * len(classes) for _ in range(width)
        ]
        for cid, spec in enumerate(specs):
            for offset in range(0, len(spec), 2):
                self.base[spec[offset]][cid] = spec[offset + 1]
        self.windows = []
        self._window_starts = []
        self._window_ends = []
        self._down_starts = []
        for name in names:
            windows = schedule.for_accelerator(name)
            self.windows.append(windows)
            self._window_starts.append([w.start for w in windows])
            self._window_ends.append([w.end for w in windows])
            self._down_starts.append([w.start for w in windows if w.kind == "down"])
        self._transitions = schedule.transitions()
        self._degraded_cache: dict[tuple[int, int, int], float | None] = {}

    def window_index_at(self, order: int, time: float) -> int | None:
        index = bisect.bisect_right(self._window_starts[order], time) - 1
        if index >= 0 and time < self._window_ends[order][index]:
            return index
        return None

    def next_down_after(self, order: int, time: float) -> float | None:
        """Earliest down-window start strictly after ``time`` (kill check)."""
        starts = self._down_starts[order]
        index = bisect.bisect_right(starts, time)
        return starts[index] if index < len(starts) else None

    def next_transition_after(self, time: float) -> float | None:
        transitions = self._transitions
        index = bisect.bisect_right(transitions, time)
        return transitions[index] if index < len(transitions) else None

    def state_at(self, time: float) -> tuple[int | None, ...]:
        """Every accelerator's window index at ``time`` (None = healthy);
        constant between two consecutive transitions."""
        return tuple(
            self.window_index_at(order, time) for order in range(len(self.names))
        )

    def service_at(self, order: int, cid: int, time: float) -> float | None:
        """Admission-time service, or None when the accelerator is
        unusable at ``time`` (down, infeasible, or degraded-invalid)."""
        if self.base[order][cid] is None:
            return None
        return self.service_in(order, cid, self.window_index_at(order, time))

    def service_in(self, order: int, cid: int, index: int | None) -> float | None:
        """Service inside window ``index`` of ``order`` (None = healthy),
        or None when the accelerator is unusable there."""
        base = self.base[order][cid]
        if base is None:
            return None
        if index is None:
            return base
        window = self.windows[order][index]
        if window.kind == "down":
            return None
        return self._degraded(order, index, cid, base)

    def _degraded(
        self, order: int, index: int, cid: int, base: float
    ) -> float | None:
        key = (order, index, cid)
        if key in self._degraded_cache:
            return self._degraded_cache[key]
        window = self.windows[order][index]
        if window.factor is not None:
            value = base * window.factor
        else:
            design = self.partition.designs[self.names[order]]
            config = getattr(design, "config", None)
            if config is None:
                raise ValueError(
                    "device-degraded fault windows need partition designs "
                    "with a .config (stub partitions should use factor= "
                    "windows instead)"
                )
            from repro.core.analytical_model import AnalyticalModel
            from repro.mapping.charm import CharmDesign

            candidate = CharmDesign(config, window.device)
            if not candidate.is_valid():
                value = None  # design does not survive: down for the window
            else:
                try:
                    value = AnalyticalModel(candidate).estimate(
                        self.classes[cid]
                    ).total_seconds
                except ValueError:
                    value = None
        self._degraded_cache[key] = value
        return value


class _FaultSelector:
    """One fault-aware selection step: the earliest finish over the
    usable candidate lanes of a shape class.

    ``lanes[cid]`` is the candidate accelerator orders of class ``cid``:
    every accelerator for the scan (the seed loop under faults, which
    scans them all per attempt), the class's feasible ones for the
    table and vectorized engines.  Infeasible lanes are never usable,
    so both candidate sets select the same winner.
    """

    def __init__(self, view: _FaultView, free: list[float], lanes: list[tuple]):
        self.view = view
        self.free = free
        self.lanes = lanes

    def select(self, t: float, cid: int):
        view = self.view
        free = self.free
        best_finish = math.inf
        best_order = -1
        best_start = 0.0
        for order in self.lanes[cid]:
            current = free[order]
            start = current if current > t else t
            service = view.service_at(order, cid, start)
            if service is None:
                continue
            finish = start + service
            if finish < best_finish:
                best_finish, best_order, best_start = finish, order, start
        if best_order < 0:
            return None
        return best_order, best_start, best_finish


def _used_classes(class_ids: np.ndarray, num_classes: int) -> list[int]:
    """The shape classes a trace uses (bincount instead of np.unique:
    no million-element sort)."""
    return np.flatnonzero(np.bincount(class_ids, minlength=num_classes)).tolist()


#: fewest arrivals worth one kernel call from the fault loop
_MIN_SEGMENT = 64


@dataclass
class _FaultOutcome:
    """What the fault loop decided, indexed by arrival-order position."""

    #: accelerator order per request; -1 = not completed (shed)
    accelerators: np.ndarray
    starts: np.ndarray
    finishes: np.ndarray
    retries: np.ndarray
    #: ``(position, retries, reason, time)``
    shed_records: list[tuple[int, int, str, float]]
    #: ``(time, kind, position, retries)``; None when not collected
    timeline: list[tuple[float, str, int, int]] | None
    #: kill instants; None when not collected
    kill_times: list[float] | None
    kills: int = 0
    requeues: int = 0


class _SegmentBatcher:
    """Hands whole fault segments of arrivals to the native kernel.

    Between two schedule transitions every accelerator's window state is
    constant, so one ``(width, classes)`` service matrix — ``inf`` for
    down or unresolvable lanes, the admission-time (possibly degraded)
    service otherwise — describes every admission of the segment; it is
    cached per distinct state.  A state in which some used class has no
    finite lane is never batched: its requests requeue or shed, which
    only the scalar loop does.
    """

    def __init__(self, view, used, arrivals, arrival_list, class_ids, free, outcome):
        self.view = view
        self.used = used
        self.arrivals = arrivals
        self.arrival_list = arrival_list
        self.class_ids = class_ids
        self.free = free
        self.outcome = outcome
        self._services: dict[tuple, np.ndarray | None] = {}

    def _services_at(self, time: float) -> np.ndarray | None:
        state = self.view.state_at(time)
        if state not in self._services:
            view = self.view
            services = np.full((len(state), len(view.classes)), np.inf)
            for cid in self.used:
                for order, index in enumerate(state):
                    service = view.service_in(order, cid, index)
                    if service is not None:
                        services[order, cid] = service
            dead = not np.isfinite(services[:, self.used].min(axis=0)).all()
            self._services[state] = None if dead else services
        return self._services[state]

    def run(self, cursor: int, bound: float) -> tuple[int, float]:
        """Dispatch the arrivals from ``cursor`` that precede both
        ``bound`` (the earliest pending retry or requeue) and the next
        transition.

        Returns the new cursor and the time before which no further
        segment is worth trying.  The kernel commits exactly what the
        scalar loop would; it stops where a lane's clock reaches the
        transition or the winner would be killed, and from there every
        later admission of the segment would stop it too, so the scalar
        loop finishes the segment.
        """
        view = self.view
        opens = self.arrival_list[cursor]
        transition = view.next_transition_after(opens)
        limit = math.inf if transition is None else transition
        end = min(limit, bound)
        stop = bisect.bisect_left(self.arrival_list, end, cursor)
        if stop - cursor < _MIN_SEGMENT:
            return cursor, end
        services = self._services_at(opens)
        if services is None:
            return cursor, limit
        next_downs = tuple(
            math.inf if (down := view.next_down_after(order, opens)) is None else down
            for order in range(len(view.names))
        )
        accepted, accs, starts, fins = dispatch_segment(
            self.arrivals[cursor:stop],
            self.class_ids[cursor:stop],
            services,
            self.free,
            limit,
            next_downs,
        )
        outcome = self.outcome
        done = cursor + accepted
        outcome.accelerators[cursor:done] = accs
        outcome.starts[cursor:done] = starts
        outcome.finishes[cursor:done] = fins
        if done < stop:
            return done, limit
        return stop, -math.inf


def _fault_loop(
    arrivals: np.ndarray,
    class_ids: np.ndarray,
    view: _FaultView,
    select: Callable,
    policy: FaultPolicy,
    free: list[float],
    *,
    segment_classes: list[int] | None,
    timeline: bool,
    kill_times: bool,
) -> _FaultOutcome:
    """The fault-aware event loop, shared by all three engines.

    Attempts are taken in ``(time, arrival position, retries)`` order:
    a cursor walks the already-sorted arrivals, and a small heap holds
    only the retries and requeues, so re-attempts interleave with later
    arrivals deterministically.  ``segment_classes`` (the trace's used
    shape classes; vectorized engine only) hands whole segments of
    arrivals to the kernel through :class:`_SegmentBatcher`; kills,
    backoff, requeues and shedding stay here, one code path for every
    engine.
    """
    n = len(arrivals)
    outcome = _FaultOutcome(
        accelerators=np.full(n, -1, dtype=np.int64),
        starts=np.empty(n),
        finishes=np.empty(n),
        retries=np.zeros(n, dtype=np.int64),
        shed_records=[],
        timeline=[] if timeline else None,
        kill_times=[] if kill_times else None,
    )
    arrival_list = arrivals.tolist()
    batcher = (
        None
        if segment_classes is None
        else _SegmentBatcher(
            view, segment_classes, arrivals, arrival_list, class_ids, free, outcome
        )
    )
    cid_list = class_ids.tolist()
    out_acc = outcome.accelerators
    out_start = outcome.starts
    out_fin = outcome.finishes
    out_retries = outcome.retries
    shed_records = outcome.shed_records
    log = outcome.timeline
    kill_log = outcome.kill_times
    pending: list[tuple[float, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    backoff = policy.backoff
    max_retries = policy.max_retries
    cursor = 0
    no_batch_before = -math.inf
    kills = 0
    requeues = 0
    while True:
        if cursor < n and (
            not pending
            or arrival_list[cursor] < pending[0][0]
            or (arrival_list[cursor] == pending[0][0] and cursor < pending[0][1])
        ):
            t = arrival_list[cursor]
            if batcher is not None and t >= no_batch_before:
                advanced, no_batch_before = batcher.run(
                    cursor, pending[0][0] if pending else math.inf
                )
                if advanced != cursor:
                    cursor = advanced
                    continue
            pos = cursor
            retries = 0
            cursor += 1
        elif pending:
            t, pos, retries = pop(pending)
        else:
            break
        best = select(t, cid_list[pos])
        if best is None:
            nxt = view.next_transition_after(t)
            if nxt is None:
                shed_records.append((pos, retries, "no_feasible_accelerator", t))
                continue
            requeues += 1
            if log is not None:
                log.append((nxt, "requeue", pos, retries))
            push(pending, (nxt, pos, retries))
            continue
        order, start, finish = best
        next_down = view.next_down_after(order, start)
        if next_down is not None and next_down < finish:
            # killed: the down window opened mid-execution
            kills += 1
            if kill_log is not None:
                kill_log.append(next_down)
            if log is not None:
                log.append((next_down, "kill", pos, retries + 1))
            free[order] = next_down
            if retries + 1 > max_retries:
                shed_records.append(
                    (pos, retries + 1, "retry_budget_exhausted", next_down)
                )
                continue
            push(pending, (next_down + backoff(retries + 1), pos, retries + 1))
            continue
        free[order] = finish
        out_acc[pos] = order
        out_start[pos] = start
        out_fin[pos] = finish
        out_retries[pos] = retries
    outcome.kills = kills
    outcome.requeues = requeues
    return outcome


class ServingSimulator:
    """Earliest-finish dispatch of a request trace over a partition.

    Service times are memoized per ``(accelerator, shape)`` pair;
    :meth:`prewarm` fills that cache in parallel before serving starts
    so no request pays a cold model evaluation, and :attr:`stats`
    reports the hit/miss balance after a run.  Every :meth:`run`
    records its evaluation counters into ``GLOBAL_STATS`` so the CLI's
    ``--stats`` reflects serving end to end.
    """

    def __init__(self, partition: AcceleratorPartition):
        self.partition = partition
        # per-shape service times are reused across requests
        self._service_cache: dict[tuple[str, GemmShape], float] = {}
        self._infeasible: set[tuple[str, GemmShape]] = set()
        self.stats = EvalStats()

    def _service(self, accelerator: str, shape: GemmShape) -> float:
        key = (accelerator, shape)
        if key not in self._service_cache:
            self.stats.cache_misses += 1
            self.stats.evaluations += 1
            self._service_cache[key] = self.partition.estimate_on(accelerator, shape)
        else:
            self.stats.cache_hits += 1
        return self._service_cache[key]

    def _service_or_none(self, accelerator: str, shape: GemmShape) -> float | None:
        """Like :meth:`_service`, but resolves infeasible pairs to None
        (counted as skipped, cached so the model is never re-walked)."""
        key = (accelerator, shape)
        cached = self._service_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        if key in self._infeasible:
            self.stats.skipped += 1
            return None
        try:
            value = self.partition.estimate_on(accelerator, shape)
        except ValueError:
            self._infeasible.add(key)
            self.stats.skipped += 1
            return None
        self.stats.cache_misses += 1
        self.stats.evaluations += 1
        self._service_cache[key] = value
        return value

    def perturbed(
        self, factor: Callable[[str, GemmShape], float]
    ) -> "ServingSimulator":
        """A new simulator whose cached service times are scaled.

        The noise hook for repeated-run benchmarking
        (``repro.bench``): ``factor(accelerator, shape)`` returns a
        finite positive multiplier per cached service time.  The
        perturbed table is materialised up front from this simulator's
        cache, so the copy serves noisy services through every
        dispatch engine — and through ``ShardedServingCluster``, whose
        worker payload ships the cache — byte-identically, with no
        per-request draw.  Requires a resolved cache
        (:meth:`prewarm` first); infeasible pairs stay infeasible.
        """
        if not self._service_cache:
            raise ValueError(
                "perturbed() requires resolved service times; call "
                "prewarm(shapes) before perturbing"
            )
        clone = ServingSimulator(self.partition)
        for (name, shape), service in self._service_cache.items():
            scale = factor(name, shape)
            if not math.isfinite(scale) or scale <= 0:
                raise ValueError(
                    f"service factor for ({name}, {shape}) must be a finite "
                    f"positive number, got {scale}"
                )
            clone._service_cache[(name, shape)] = service * scale
        clone._infeasible = set(self._infeasible)
        return clone

    def prewarm(
        self, shapes: Sequence[GemmShape], jobs: int = 1, vectorize: bool = False
    ) -> int:
        """Precompute service times for ``shapes`` on every accelerator.

        Infeasible pairs are skipped (dispatch skips them too).  Returns
        the number of pairs resolved; with ``jobs > 1`` the model
        evaluations run concurrently.  ``vectorize`` resolves all pairs
        through one batch evaluation per (precision, kernel style)
        family instead of per-pair model walks; the cached service times
        are bit-identical either way.
        """

        def resolve(pair: tuple[str, GemmShape]) -> tuple[tuple[str, GemmShape], float] | None:
            name, shape = pair
            try:
                return pair, self.partition.estimate_on(name, shape)
            except ValueError:
                return None

        pairs = [
            (name, shape)
            for shape in dict.fromkeys(shapes)
            for name in self.partition.designs
            if (name, shape) not in self._service_cache
        ]
        with span(
            "serve.prewarm",
            track="serving",
            pairs=len(pairs),
            jobs=jobs,
            vectorize=vectorize,
        ), track(self.stats):
            if vectorize and pairs:
                warmed = self._prewarm_vectorized(pairs)
            else:
                resolved = parallel_map(resolve, pairs, jobs=jobs)
                warmed = [entry for entry in resolved if entry is not None]
        for key, service in warmed:
            self._service_cache[key] = service
        warmed_keys = {key for key, _ in warmed}
        self._infeasible.update(pair for pair in pairs if pair not in warmed_keys)
        self.stats.evaluations += len(warmed)
        self.stats.skipped += len(pairs) - len(warmed)
        GLOBAL_STATS.record(EvalStats(evaluations=len(warmed), jobs=jobs))
        return len(warmed)

    def _prewarm_vectorized(
        self, pairs: Sequence[tuple[str, GemmShape]]
    ) -> list[tuple[tuple[str, GemmShape], float]]:
        """Resolve pairs through the batch evaluation kernel.

        A grid evaluates one (precision, kernel style) family at a time,
        so mixed partitions are grouped; within a group every pair
        carries its own workload shape.
        """
        from repro.perf.vectorized import batch_estimate_designs

        groups: dict[tuple, list[tuple[str, GemmShape]]] = {}
        for pair in pairs:
            design = self.partition.designs[pair[0]]
            groups.setdefault((design.precision, design.kernel_style), []).append(pair)
        warmed = []
        for group in groups.values():
            designs = [self.partition.designs[name] for name, _ in group]
            shapes = [shape for _, shape in group]
            batch = batch_estimate_designs(designs, shapes)
            for index, pair in enumerate(group):
                if batch.feasible[index]:
                    warmed.append((pair, float(batch.total_seconds[index])))
        return warmed

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Union[Sequence[Request], SoATrace],
        *,
        streaming: bool = False,
        dispatch: str = "auto",
        quantile_error: float = 0.01,
        chunk_size: int = DISPATCH_CHUNK,
        faults: FaultSchedule | None = None,
        fault_policy: FaultPolicy | None = None,
        monitor: "ServingMonitor | None" = None,
    ) -> ServingReport | StreamingServingReport:
        """Serve ``trace``; return an exact or streaming report.

        ``dispatch`` selects the engine: ``auto``, ``vectorized``,
        ``table``, or ``scan`` (the seed loop, exact mode only).  The
        vectorized engine is the native k-wide kernel, legal at any
        partition width; under a fault schedule it batches the segments
        between fault transitions — clean or degraded — and leaves
        kills, requeues and sheds to the scalar fault loop.  ``auto``
        picks it whenever the kernel compiled and the table engine
        otherwise, clean or faulted; an explicit ``vectorized`` without
        the kernel raises ``ValueError`` naming the reason.  All engines
        make byte-identical dispatch decisions — engine choice is purely
        a throughput knob (see the engine-selection matrix in
        ``docs/performance.md``).
        ``streaming=True`` returns a :class:`StreamingServingReport`
        with O(1) memory and ``quantile_error``-bounded percentiles;
        the default exact mode keeps every completed request as arrays
        (:class:`ServingReport`).

        ``faults`` injects a time-varying fault schedule under
        ``fault_policy`` (default :data:`~repro.sim.chaos.DEFAULT_FAULT_POLICY`)
        — see the module docstring for the exact semantics.  ``None`` or
        an empty schedule takes the fault-free paths untouched.

        ``monitor`` attaches a :class:`repro.obs.windows.ServingMonitor`
        fed at the existing dispatch-chunk boundaries, *after* every
        decision in a chunk is final — so an attached monitor cannot
        change a single dispatch decision (a conformance-tested
        byte-identity contract).  Sheds and kills under a fault schedule
        are reported to the monitor at their simulated decision times.
        """
        if dispatch not in _DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {_DISPATCH_MODES}")
        if streaming and dispatch == "scan":
            raise ValueError("streaming mode requires a fast dispatch engine")
        if len(trace) == 0:
            # one uniform contract across every engine: an empty
            # trace has no dispatch semantics (generate_trace* likewise
            # reject num_requests < 1)
            raise ValueError(
                "cannot serve an empty trace: num_requests must be positive"
            )
        engine = _resolve_engine(dispatch)
        before = self.stats.snapshot()
        try:
            with span(
                "serve.run",
                track="serving",
                requests=len(trace),
                dispatch=dispatch,
                engine=engine,
                streaming=streaming,
                faulted=faults is not None and not faults.is_empty,
            ), track(self.stats):
                if faults is not None and not faults.is_empty:
                    return self._run_faulted(
                        trace,
                        streaming=streaming,
                        dispatch=dispatch,
                        engine=engine,
                        quantile_error=quantile_error,
                        chunk_size=chunk_size,
                        faults=faults,
                        policy=fault_policy or DEFAULT_FAULT_POLICY,
                        monitor=monitor,
                    )
                if dispatch == "scan":
                    report = self._run_scan(trace)
                    if monitor is not None:
                        _feed_monitor(
                            monitor,
                            report._arrivals,
                            report._starts,
                            report._finishes,
                            chunk_size,
                        )
                    return report
                return self._run_fast(
                    trace,
                    streaming=streaming,
                    dispatch=dispatch,
                    engine=engine,
                    quantile_error=quantile_error,
                    chunk_size=chunk_size,
                    monitor=monitor,
                )
        finally:
            GLOBAL_STATS.record(self.stats.delta_since(before))

    def _run_faulted(
        self,
        trace: Union[Sequence[Request], SoATrace],
        *,
        streaming: bool,
        dispatch: str,
        engine: str,
        quantile_error: float,
        chunk_size: int,
        faults: FaultSchedule,
        policy: FaultPolicy,
        monitor: "ServingMonitor | None" = None,
    ) -> ServingReport | StreamingServingReport:
        """Serve ``trace`` through :func:`_fault_loop`.

        The engines differ only in candidate *selection* (the vectorized
        engine additionally batches whole segments through the kernel);
        the loop is one code path, which is what makes the engines'
        fault semantics identical by construction.  The report, the
        monitor and the fault counters all read the loop's arrays.
        """
        names = list(self.partition.designs)
        unknown = set(faults.accelerators()) - set(names)
        if unknown:
            raise FaultError(
                f"fault schedule names accelerators not in the partition: "
                f"{sorted(unknown)} (partition has {names})"
            )
        arrivals, class_ids, classes, source = self._normalize(trace)
        used = _used_classes(class_ids, len(classes))
        specs = self._class_specs(classes, set(used), dispatch)
        self.stats.cache_hits += len(class_ids)
        view = _FaultView(self, faults, names, classes, specs)
        free = [0.0] * len(names)
        if engine == "scan":
            lanes = [tuple(range(len(names)))] * len(specs)
        else:
            lanes = [spec[::2] for spec in specs]
        selector = _FaultSelector(view, free, lanes)

        with span(
            "serve.fault_loop", track="serving", requests=len(arrivals)
        ) as loop_span:
            outcome = _fault_loop(
                arrivals,
                class_ids,
                view,
                selector.select,
                policy,
                free,
                segment_classes=used if engine == "vectorized" else None,
                # streaming mode keeps its O(1)-memory promise by not
                # collecting a decision log
                timeline=not streaming,
                kill_times=monitor is not None,
            )
            loop_span.set(
                kills=outcome.kills,
                requeues=outcome.requeues,
                shed=len(outcome.shed_records),
            )

        positions = np.flatnonzero(outcome.accelerators >= 0)
        if len(positions) == len(arrivals):
            accs, starts, fins, retries = (
                outcome.accelerators, outcome.starts, outcome.finishes, outcome.retries
            )
        else:
            arrivals = arrivals[positions]
            accs = outcome.accelerators[positions]
            starts = outcome.starts[positions]
            fins = outcome.finishes[positions]
            retries = outcome.retries[positions]
        shed_records = sorted(outcome.shed_records)
        makespan = float(fins.max()) if len(fins) else 0.0
        downtime = {name: 0.0 for name in names}
        downtime.update(faults.downtime(makespan))
        total_retries = int(retries.sum()) + sum(record[1] for record in shed_records)
        GLOBAL_STATS.record_faults(
            FaultStats(
                windows=len(faults),
                kills=outcome.kills,
                retries=total_retries,
                requeues=outcome.requeues,
                shed=len(shed_records),
                completed=len(positions),
            )
        )

        if monitor is not None:
            _feed_monitor(monitor, arrivals, starts, fins, chunk_size)
            if shed_records:
                monitor.observe_sheds(
                    np.asarray([record[3] for record in shed_records])
                )
            if outcome.kill_times:
                monitor.observe_kills(np.asarray(outcome.kill_times))
        if streaming:
            report = StreamingServingReport(names, quantile_error=quantile_error)
            for lo in range(0, len(positions), chunk_size):
                hi = lo + chunk_size
                report.observe_batch(
                    accs[lo:hi], arrivals[lo:hi], starts[lo:hi], fins[lo:hi]
                )
            report.record_fault_metadata(
                shed_count=len(shed_records),
                total_retries=total_retries,
                kills=outcome.kills,
                requeues=outcome.requeues,
                fault_events=faults.events(),
                downtime=downtime,
            )
            return report
        return ServingReport.from_arrays(
            source,
            names,
            positions,
            arrivals,
            accs,
            starts,
            fins,
            retries,
            shed_records=shed_records,
            timeline=outcome.timeline,
            fault_events=faults.events(),
            downtime=downtime,
            kills=outcome.kills,
            requeues=outcome.requeues,
        )

    def _run_scan(self, trace: Union[Sequence[Request], SoATrace]) -> ServingReport:
        """The seed dispatch loop: linear scan over ``Request`` objects."""
        if isinstance(trace, SoATrace):
            trace = trace.materialize()
        names = list(self.partition.designs)
        free_at = {name: 0.0 for name in names}
        order_of = {name: order for order, name in enumerate(names)}
        ordered = sorted(trace, key=lambda r: r.arrival)
        accs: list[int] = []
        starts: list[float] = []
        finishes: list[float] = []
        for request in ordered:
            best_name, best_finish, best_start = None, float("inf"), 0.0
            for name in free_at:
                try:
                    service = self._service(name, request.shape)
                except ValueError:
                    continue
                start = max(request.arrival, free_at[name])
                finish = start + service
                if finish < best_finish:
                    best_name, best_finish, best_start = name, finish, start
            if best_name is None:
                raise ValueError(f"no accelerator can serve {request.shape}")
            free_at[best_name] = best_finish
            accs.append(order_of[best_name])
            starts.append(best_start)
            finishes.append(best_finish)
        return ServingReport.from_arrays(
            ordered,
            names,
            np.arange(len(ordered)),
            np.asarray([request.arrival for request in ordered], dtype=np.float64),
            np.asarray(accs, dtype=np.int64),
            np.asarray(starts, dtype=np.float64),
            np.asarray(finishes, dtype=np.float64),
        )

    def _normalize(
        self, trace: Union[Sequence[Request], SoATrace]
    ) -> tuple[np.ndarray, np.ndarray, list[GemmShape], Union[list[Request], SoATrace]]:
        """Arrival-sorted SoA view of ``trace``:
        ``(arrivals, class_ids, classes, source)``.

        An ``SoATrace`` passes through without a single element being
        boxed and is its own request source; a ``Request`` list is sorted
        by arrival, and the sorted list is the source an exact report's
        lazily built rows point at.
        """
        if isinstance(trace, SoATrace):
            return trace.arrivals, trace.shape_ids, list(trace.shapes), trace
        ordered = sorted(trace, key=lambda r: r.arrival)
        class_index: dict[GemmShape, int] = {}
        class_ids = np.asarray(
            [
                class_index.setdefault(request.shape, len(class_index))
                for request in ordered
            ],
            dtype=np.int64,
        )
        arrivals = np.asarray(
            [request.arrival for request in ordered], dtype=np.float64
        )
        return arrivals, class_ids, list(class_index), ordered

    def _class_specs(
        self, classes: Sequence[GemmShape], used: set[int], dispatch: str
    ) -> list[tuple]:
        """Flat ``(acc, service, ...)`` dispatch spec per shape class.

        Every engine but the clean scan reads its service times from
        here, so this is where a service that would desynchronize the
        engines from the scan fails loudly.  An infinite service is
        treated like an infeasible pair: the scan never picks it (it
        cannot win a strict-less earliest-finish comparison), so a class
        whose every service is infinite raises the scan's "no
        accelerator can serve" error on every engine.  NaN poisons every
        comparison and raises, naming the accelerator and shape class.
        """
        names = list(self.partition.designs)
        specs: list[tuple] = []
        for class_id, shape in enumerate(classes):
            if class_id not in used:
                specs.append(())
                continue
            flat: list = []
            for order, name in enumerate(names):
                service = self._service_or_none(name, shape)
                if service is None or service == math.inf:
                    continue
                if math.isnan(service):
                    raise ValueError(
                        f"dispatch={dispatch!r} requires finite service times: "
                        f"accelerator {name!r} reports NaN for shape class {shape}"
                    )
                flat.append(order)
                flat.append(service)
            if not flat:
                raise ValueError(f"no accelerator can serve {shape}")
            specs.append(tuple(flat))
        return specs

    @staticmethod
    def _service_matrix(names: Sequence[str], specs: Sequence[tuple]) -> np.ndarray:
        """Dense ``(width, classes)`` service matrix; ``inf`` = infeasible."""
        services = np.full((len(names), len(specs)), np.inf)
        for cid, spec in enumerate(specs):
            for offset in range(0, len(spec), 2):
                services[spec[offset], cid] = spec[offset + 1]
        return services

    def _run_fast(
        self,
        trace: Union[Sequence[Request], SoATrace],
        *,
        streaming: bool,
        dispatch: str,
        engine: str,
        quantile_error: float,
        chunk_size: int,
        monitor: "ServingMonitor | None" = None,
    ) -> ServingReport | StreamingServingReport:
        names = list(self.partition.designs)
        arrivals, class_ids, classes, source = self._normalize(trace)
        n = len(arrivals)
        specs = self._class_specs(
            classes, set(_used_classes(class_ids, len(classes))), dispatch
        )
        # dispatched service lookups are cache hits by construction
        self.stats.cache_hits += n
        free = [0.0] * len(names)

        if streaming:
            report = StreamingServingReport(names, quantile_error=quantile_error)

            def flush(base: int, accs, starts, finishes) -> None:
                report.observe_batch(
                    np.asarray(accs, dtype=np.int64),
                    arrivals[base : base + len(accs)],
                    np.asarray(starts),
                    np.asarray(finishes),
                )
        else:
            out_acc = np.empty(n, dtype=np.int64)
            out_start = np.empty(n)
            out_fin = np.empty(n)

            def flush(base: int, accs, starts, finishes) -> None:
                hi = base + len(accs)
                out_acc[base:hi] = accs
                out_start[base:hi] = starts
                out_fin[base:hi] = finishes

        if GLOBAL_TRACER.enabled:
            # wrap only when tracing: the disabled path keeps the raw
            # flush callback with zero indirection
            inner_flush = flush

            def flush(base: int, accs, starts, finishes) -> None:
                with span(
                    "serve.report_fold",
                    track="serving",
                    base=base,
                    size=len(accs),
                ):
                    inner_flush(base, accs, starts, finishes)

        if monitor is not None:
            # outermost wrap: the monitor reads the chunk's final
            # decisions after the report consumed them — it can observe,
            # never influence (byte-identity is conformance-gated)
            pre_monitor_flush = flush

            def flush(base: int, accs, starts, finishes) -> None:
                pre_monitor_flush(base, accs, starts, finishes)
                monitor.observe_chunk(
                    arrivals[base : base + len(accs)],
                    np.asarray(starts, dtype=np.float64),
                    np.asarray(finishes, dtype=np.float64),
                )

        if engine == "vectorized":
            dispatch_vectorized(
                arrivals,
                class_ids,
                self._service_matrix(names, specs),
                free,
                flush,
                chunk_size,
            )
        else:
            _dispatch_table(
                arrivals.tolist(), class_ids.tolist(), specs, free, flush, chunk_size
            )
        if streaming:
            return report
        return ServingReport.from_arrays(
            source, names, np.arange(n), arrivals, out_acc, out_start, out_fin
        )


@dataclass(frozen=True)
class LoadSweepPoint:
    """One offered-load measurement on the throughput/latency curve."""

    offered_rps: float
    achieved_rps: float
    p50: float
    p99: float
    mean_latency: float
    num_requests: int
    #: SLO verdict for this point (None when the sweep ran without one)
    slo_ok: bool | None = None
    #: burn-rate alerts fired while serving this point
    slo_alerts: int = 0

    @property
    def saturation(self) -> float:
        """Achieved / offered throughput (1.0 = keeping up)."""
        if self.offered_rps == 0:
            return 0.0
        return self.achieved_rps / self.offered_rps


@dataclass
class LoadSweepResult:
    """An offered-load sweep: points, saturation knee, plateau exit."""

    points: list[LoadSweepPoint]
    #: first offered load the partition could not keep up with
    knee_rps: float | None
    #: throughput ceiling observed when the sweep exited early
    plateau_rps: float | None
    early_exit: bool
    #: first offered load that breached the SLO (None without a spec,
    #: or when every point stayed within budget)
    slo_breach_rps: float | None = None

    def rows(self) -> list[dict]:
        rows = []
        for point in self.points:
            row = {
                "offered_rps": round(point.offered_rps, 1),
                "achieved_rps": round(point.achieved_rps, 1),
                "saturation": round(point.saturation, 3),
                "p50_ms": round(point.p50 * 1e3, 3),
                "p99_ms": round(point.p99 * 1e3, 3),
                "mean_ms": round(point.mean_latency * 1e3, 3),
            }
            if point.slo_ok is not None:
                row["slo"] = "ok" if point.slo_ok else f"BREACH({point.slo_alerts})"
            rows.append(row)
        return rows


def default_load_ramp(
    simulator: ServingSimulator, shapes: Sequence[GemmShape], points: int = 10
) -> list[float]:
    """A geometric offered-load ramp bracketing the partition's capacity.

    Capacity is approximated as every accelerator draining its mean
    feasible service time concurrently; the ramp spans 0.1x to ~3x of
    it so the saturation knee lands inside the sweep.
    """
    capacity = 0.0
    for name in simulator.partition.designs:
        services = [
            service
            for shape in dict.fromkeys(shapes)
            if (service := simulator._service_or_none(name, shape)) is not None
        ]
        if services:
            capacity += len(services) / sum(services)
    if capacity <= 0:
        raise ValueError("no accelerator can serve any of the shapes")
    factor = (3.0 / 0.1) ** (1.0 / max(points - 1, 1))
    return [0.1 * capacity * factor**index for index in range(points)]


def load_sweep(
    simulator: ServingSimulator,
    shapes: Sequence[GemmShape],
    offered_loads: Sequence[float] | None = None,
    *,
    num_requests: int = 2000,
    seed: int = 0,
    streaming: bool = True,
    quantile_error: float = 0.01,
    knee_tol: float = 0.05,
    plateau_rtol: float = 0.02,
    jobs: int = 1,
    shards: int = 1,
    start_method: str | None = None,
    faults: FaultSchedule | None = None,
    fault_policy: FaultPolicy | None = None,
    slo: "SloSpec | str | None" = None,
    slo_windows: int = 50,
) -> LoadSweepResult:
    """Sweep offered load, collecting throughput and tail-latency curves.

    For each offered load (requests/sec) a fresh SoA trace is generated
    and served (``streaming=True`` keeps the sweep O(1) in memory).
    Every point draws its trace from :func:`~repro.sim.streaming.derive_seed`
    ``(seed, point index)``, so the points are decorrelated yet fully
    determined by ``seed`` alone.  The *saturation knee* is the first
    load whose achieved throughput falls below ``offered * (1 -
    knee_tol)``; once achieved throughput stops growing by more than
    ``plateau_rtol`` between consecutive points the sweep exits early —
    past saturation every extra point costs a full simulation and
    reports the same ceiling.

    ``jobs > 1`` evaluates points in waves of ``jobs`` through
    :func:`~repro.perf.parallel.parallel_map` — thread-based, so the
    simulator's SoA traces and service tables are shared, never pickled
    — while the knee/plateau fold still walks the results in offered-
    load order and truncates at the same point, making the returned
    sweep byte-equal to a ``jobs=1`` run (``jobs=0`` uses every core).

    ``faults`` applies the same fault schedule to every point of the
    sweep (the schedule is in absolute trace time), so the curve shows
    degraded-capacity behaviour; latency percentiles cover completed
    requests only, with shedding reflected in achieved throughput.

    ``shards > 1`` serves each point through a shared
    :class:`~repro.sim.cluster_serving.ShardedServingCluster` (one
    process pool reused across points, ``start_method`` selecting
    fork/spawn/forkserver/inline): every point's trace is partitioned
    into ``shards`` replicas whose per-shard dispatch is byte-identical
    to unsharded runs over the same sub-traces.  Points then evaluate
    sequentially — the parallelism budget lives in the shard pool, so
    ``jobs`` bounds the pool's worker processes instead of sweep
    threads.  Sharded points imply ``streaming=True``.

    ``slo`` (a spec string like ``"p99<50ms,avail>0.999"`` or a
    compiled :class:`repro.obs.slo.SloSpec`) attaches a windowed
    :class:`~repro.obs.windows.ServingMonitor` to every point — each
    point's horizon cut into ``slo_windows`` windows — and stamps the
    point with its burn-rate verdict, so the saturation knee carries an
    SLO-breach annotation (``slo_breach_rps`` is the first offered load
    whose point fired an alert).
    """
    if offered_loads is None:
        offered_loads = default_load_ramp(simulator, shapes)
    offered_loads = list(offered_loads)
    if not offered_loads:
        raise ValueError("need at least one offered load")
    if any(load <= 0 for load in offered_loads):
        raise ValueError("offered loads must be positive")
    if shards < 1:
        raise ValueError("need at least one shard")

    cluster = None
    if shards > 1:
        from repro.sim.cluster_serving import ShardedServingCluster

        cluster = ShardedServingCluster(
            simulator,
            shapes,
            shards=shards,
            quantile_error=quantile_error,
            start_method=start_method,
            max_workers=resolve_jobs(jobs) if jobs != 1 else None,
            faults=faults,
            fault_policy=fault_policy,
        )

    slo_spec = None
    if slo is not None:
        from repro.obs.slo import SloSpec

        slo_spec = SloSpec.parse(slo) if isinstance(slo, str) else slo

    def evaluate(task: tuple[int, float]) -> LoadSweepPoint:
        index, offered = task
        monitor = None
        if slo_spec is not None:
            from repro.obs.windows import ServingMonitor

            # each point's trace spans ~num_requests/offered seconds of
            # simulated time; cut that horizon into slo_windows windows
            monitor = ServingMonitor.for_horizon(
                num_requests / offered,
                slo_windows,
                quantile_error=quantile_error,
            )
        if cluster is not None:
            fleet = cluster.serve(
                num_requests,
                1.0 / offered,
                seed=derive_seed(seed, index),
                monitor_window=(
                    monitor.window_seconds if monitor is not None else None
                ),
            )
            report = fleet.report
            if monitor is not None:
                monitor = fleet.monitor
        else:
            trace = generate_trace_soa(
                shapes, num_requests, 1.0 / offered, seed=derive_seed(seed, index)
            )
            report = simulator.run(
                trace,
                streaming=streaming,
                quantile_error=quantile_error,
                faults=faults,
                fault_policy=fault_policy,
                monitor=monitor,
            )
        p50, p99 = report.latency_percentiles([50, 99])
        slo_ok = None
        slo_alerts = 0
        if monitor is not None:
            from repro.obs.slo import evaluate_slo

            verdict = evaluate_slo(monitor, slo_spec)
            slo_ok = verdict.ok
            slo_alerts = len(verdict.alerts)
        return LoadSweepPoint(
            offered_rps=offered,
            achieved_rps=report.throughput_rps,
            p50=p50,
            p99=p99,
            mean_latency=report.mean_latency(),
            num_requests=num_requests,
            slo_ok=slo_ok,
            slo_alerts=slo_alerts,
        )

    # one pool submission pipeline at a time: sharded sweeps keep their
    # parallelism inside the cluster, so points go through in order
    wave = 1 if cluster is not None else resolve_jobs(jobs)
    points: list[LoadSweepPoint] = []
    knee_rps: float | None = None
    plateau_rps: float | None = None
    slo_breach_rps: float | None = None
    early_exit = False
    position = 0
    try:
        while position < len(offered_loads) and not early_exit:
            tasks = [
                (index, offered_loads[index])
                for index in range(position, min(position + wave, len(offered_loads)))
            ]
            position += len(tasks)
            for point in parallel_map(evaluate, tasks, jobs=wave, chunksize=1):
                points.append(point)
                if knee_rps is None and point.saturation < 1.0 - knee_tol:
                    knee_rps = point.offered_rps
                if slo_breach_rps is None and point.slo_ok is False:
                    slo_breach_rps = point.offered_rps
                if len(points) >= 2 and knee_rps is not None:
                    previous = points[-2].achieved_rps
                    if (
                        previous > 0
                        and abs(point.achieved_rps - previous)
                        <= plateau_rtol * previous
                    ):
                        plateau_rps = point.achieved_rps
                        early_exit = True
                        break
    finally:
        if cluster is not None:
            cluster.close()
    return LoadSweepResult(
        points=points,
        knee_rps=knee_rps,
        plateau_rps=plateau_rps,
        early_exit=early_exit,
        slo_breach_rps=slo_breach_rps,
    )
