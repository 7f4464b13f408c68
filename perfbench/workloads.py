"""The benchmark's workloads, driven through the public API only.

Each workload has a set-up step (``build``), a timed step
(``iterate``) and an output check run outside the timed region
(``check``).  The seed fixes the request trace for serving and the query
order for the DSE.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core import dse
from repro.core.analytical_model import AnalyticalModel
from repro.core.multi_acc import AcceleratorPartition
from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.obs.windows import ServingMonitor
from repro.perf.cache import EvalCache, NullCache
from repro.sim import cluster_serving, streaming
from repro.sim.chaos import chaos_schedule
from repro.sim.hwsim import HwSimulator
from repro.sim.serving import ServingSimulator
from repro.workloads.dnn import workload_by_id
from repro.workloads.gemm import GemmShape

#: the 4-shape serving mix and the C5+C3 partition it is served on
SERVING_SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
    GemmShape(1024, 2048, 1024),
)
PARTITION = ("C5", "C3")
#: ~0.8 of the partition's measured ~1.41k req/s saturation, so queues
#: stay bounded (simulated p50 ~2.4 ms, p99 ~10.6 ms)
MEAN_INTERARRIVAL = 0.9e-3
#: requests re-served through the ``scan`` oracle by the output check
CHECK_PREFIX = 20_000
#: windows of the chaos workload's ``ServingMonitor`` over the trace horizon
MONITOR_WINDOWS = 100
#: the chaos workload's fault schedule is one fixed seeded draw, with
#: kills, retries and requeues (both accelerators down at once), so every
#: run faces the same outages; only the request trace follows ``--seed``
#: (per-seed schedules change the work by tens of percent).  Its first
#: outage (C5 down from 3.7 s) falls inside the checked prefix.
CHAOS_SCHEDULE_SEED = 8


@dataclass
class Outcome:
    """What one timed iteration produced, for the check and the counters."""

    units: int
    output: Any
    counters: dict[str, float] = field(default_factory=dict)


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def decisions_digest(report) -> str:
    """A digest of every dispatch decision and shed of an exact report."""
    names = sorted({c.accelerator for c in report.completed})
    index = {name: i for i, name in enumerate(names)}
    decisions = np.array(
        [(index[c.accelerator], c.start, c.finish, c.retries) for c in report.completed],
        dtype=np.float64,
    )
    shed = json.dumps([(s.request.request_id, s.retries, s.reason) for s in report.shed])
    return _digest(json.dumps(names).encode() + decisions.tobytes() + shed.encode())


def _behaviour(summary: dict) -> dict[str, float]:
    completed = summary["completed"]
    attempts = completed + summary["kills"] + summary["retries"]
    return {
        "chaos.kills": summary["kills"],
        "chaos.retries": summary["retries"],
        "chaos.requeues": summary["requeues"],
        "chaos.shed": summary["shed"],
        "chaos.useful_ratio": completed / attempts if attempts else 0.0,
    }


class ServeWorkload:
    """Serve one seeded Poisson trace on the C5+C3 partition per iteration.

    ``chaos`` adds a seeded fault schedule spanning the trace horizon,
    an exact report and a windowed monitor; ``shards`` serves the trace
    through a one-shot forked shard pool instead of one simulator.
    """

    unit = "simulated requests"
    rate_name = "sim_requests_per_s"
    #: the first iteration is slower (lazy set-up, cold caches) and untimed
    warmup_iterations = 1

    def __init__(
        self,
        name: str,
        seed: int,
        requests: int,
        *,
        chaos: bool = False,
        shards: int = 0,
        prefix: int = CHECK_PREFIX,
    ):
        self.name = name
        self.seed = seed
        self.requests = requests
        self.chaos = chaos
        # only the fault loop needs the program's own span
        self.program_spans = chaos
        self.shards = shards
        self.prefix = min(prefix, requests)
        self.horizon = requests * MEAN_INTERARRIVAL
        self.children_rss = shards > 0
        self.simulator: ServingSimulator | None = None
        self.faults = None
        self._reference: str | None = None

    def build(self) -> None:
        partition = AcceleratorPartition([config_by_name(name) for name in PARTITION])
        self.simulator = ServingSimulator(partition)
        self.simulator.prewarm(SERVING_SHAPES)
        if self.chaos:
            self.faults = chaos_schedule(
                list(partition.designs), self.horizon, seed=CHAOS_SCHEDULE_SEED, device=VCK5000
            )

    def iterate(self, tracer) -> Outcome:
        counters: dict[str, float] = {}
        if self.shards:
            fleet = cluster_serving.serve_sharded(
                self.simulator,
                SERVING_SHAPES,
                self.requests,
                MEAN_INTERARRIVAL,
                shards=self.shards,
                seed=self.seed,
                start_method="fork",
            )
            report = fleet.report
            counters["cluster.shard_busy_s"] = fleet.stats.wall_seconds
        else:
            trace = streaming.generate_trace_soa(
                SERVING_SHAPES, self.requests, MEAN_INTERARRIVAL, seed=self.seed
            )
            monitor = (
                ServingMonitor.for_horizon(self.horizon, MONITOR_WINDOWS)
                if self.chaos
                else None
            )
            report = self.simulator.run(
                trace,
                streaming=not self.chaos,
                dispatch="auto",
                faults=self.faults,
                monitor=monitor,
            )
        with tracer.span("serving.report_read"):
            p50, p99 = report.latency_percentiles([50, 99])
            summary = report.fault_summary()
            report.availability()
        counters.update(_behaviour(summary))
        return Outcome(self.requests, (report, summary, p50, p99), counters)

    def check(self, outcome: Outcome) -> list[str]:
        report, summary, p50, p99 = outcome.output
        problems = []
        if summary["completed"] + summary["shed"] != self.requests:
            problems.append(
                f"completed {summary['completed']} + shed {summary['shed']} "
                f"!= {self.requests} requests"
            )
        if not 0 < p50 <= p99:
            problems.append(f"latency percentiles out of order: p50 {p50}, p99 {p99}")
        if self.chaos:
            digest = decisions_digest(report)
        else:
            digest = _digest(json.dumps(report.as_dict(), sort_keys=True).encode())
        if self._reference is None:
            self._reference = digest
            problems.extend(self._check_prefix())
            if self.shards:
                problems.extend(self._check_shards(digest))
        elif digest != self._reference:
            problems.append("report differs from the first iteration of this seed")
        return problems

    def _check_prefix(self) -> list[str]:
        """``auto`` on the trace prefix must match an independent ``scan`` oracle."""
        trace = streaming.generate_trace_soa(
            SERVING_SHAPES, self.prefix, MEAN_INTERARRIVAL, seed=self.seed
        )
        oracle = ServingSimulator(self.simulator.partition)
        expected = oracle.run(trace, dispatch="scan", faults=self.faults)
        got = self.simulator.run(trace, dispatch="auto", faults=self.faults)
        if decisions_digest(got) != decisions_digest(expected):
            return [f"auto dispatch differs from the scan oracle on the first {self.prefix} requests"]
        return []

    def _check_shards(self, digest: str) -> list[str]:
        """The sharded report must equal its shards served inline and merged.

        Each shard's arrival clock starts at the previous shard's last
        arrival, taken from that shard's own trace, so neither the
        cluster's carry nor its transport is trusted.
        """
        merged = None
        carry = 0.0
        for lo, hi in streaming.shard_bounds(self.requests, self.shards):
            trace = streaming.generate_trace_shard(
                SERVING_SHAPES, self.requests, MEAN_INTERARRIVAL, self.seed,
                lo=lo, hi=hi, arrival_offset=carry,
            )
            carry = float(trace.arrivals[-1])
            report = self.simulator.run(trace, streaming=True, dispatch="auto")
            merged = report if merged is None else merged.merge(report)
        if _digest(json.dumps(merged.as_dict(), sort_keys=True).encode()) != digest:
            return [f"sharded report differs from its {self.shards} shards served inline"]
        return []

    def model_error_pct(self) -> float:
        """Max |model - DES| / DES over the partition's feasible (design, shape) pairs."""
        errors = []
        for design in self.simulator.partition.designs.values():
            for shape in SERVING_SHAPES:
                try:
                    _, error = HwSimulator(design).compare_with_model(shape)
                except ValueError:
                    continue
                errors.append(abs(error))
        return 100.0 * max(errors)


class DseWorkload:
    """FP32 Table III DSE queries with ``explore_ports=True`` on the full device.

    ``warm`` asks the queries on one explorer whose cache a preparation
    pass filled; otherwise every iteration starts a fresh ``EvalCache``.
    The seed fixes the order the queries are asked in.
    """

    unit = "DSE queries"
    children_rss = False
    program_spans = False

    def __init__(
        self,
        name: str,
        seed: int,
        workload_ids: tuple[str, ...],
        *,
        warm: bool,
        max_aies: int | None = None,
    ):
        self.name = name
        self.seed = seed
        self.warm = warm
        self.rate_name = "dse_warm_queries_per_s" if warm else "dse_cold_queries_per_s"
        self.max_aies = max_aies
        order = list(workload_ids)
        random.Random(seed).shuffle(order)
        self.shapes = [workload_by_id(wid).shape for wid in order]
        # a cold iteration starts from a fresh cache by design, so only
        # the warm workload discards its first iteration
        self.warmup_iterations = 1 if warm else 0
        self.explorer: dse.DesignSpaceExplorer | None = None
        self._reference: str | None = None
        self._winners: dict[GemmShape, Any] = {}

    def _explorer(self) -> dse.DesignSpaceExplorer:
        return dse.DesignSpaceExplorer(
            Precision.FP32, max_aies=self.max_aies, explore_ports=True, cache=EvalCache()
        )

    def build(self) -> None:
        self.explorer = self._explorer()

    def prepare(self) -> None:
        """Fill the warm explorer's cache (untimed, outside set-up)."""
        if self.warm:
            for shape in self.shapes:
                self.explorer.explore(shape)

    def iterate(self, tracer) -> Outcome:
        explorer = self.explorer if self.warm else self._explorer()
        cache = explorer.cache
        hits, misses = cache.hits, cache.misses
        results = [explorer.explore(shape) for shape in self.shapes]
        hits, misses = cache.hits - hits, cache.misses - misses
        return Outcome(
            len(self.shapes),
            (explorer, results),
            {
                "cache.hits": hits,
                "cache.misses": misses,
                "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            },
        )

    def check(self, outcome: Outcome) -> list[str]:
        explorer, results = outcome.output
        if any(not points for points in results):
            return ["no feasible design for some query"]
        rows = [
            [
                [repr(p.config.grouping), p.config.num_plios, str(p.config.dram_ports), repr(p.seconds)]
                for p in points
            ]
            for points in results
        ]
        digest = _digest(json.dumps(rows).encode())
        if self._reference is not None:
            # the digest covers every winner's design and estimate bit for
            # bit, so an equal ranking needs no second uncached recompute
            if digest != self._reference:
                return ["ranking differs from the first iteration of this seed"]
            return []
        self._reference = digest
        problems = []
        for shape, points in zip(self.shapes, results):
            winner = points[0]
            design = CharmDesign(winner.config, explorer.device)
            uncached = AnalyticalModel(design, cache=NullCache()).estimate(shape)
            if uncached.total_seconds != winner.seconds:
                problems.append(
                    f"{shape}: cached winner estimate {winner.seconds!r} != "
                    f"uncached {uncached.total_seconds!r}"
                )
            self._winners[shape] = design
        return problems

    def model_error_pct(self) -> float:
        """Max |model - DES| / DES over each query's winning design."""
        errors = [
            abs(HwSimulator(design).compare_with_model(shape)[1])
            for shape, design in self._winners.items()
        ]
        return 100.0 * max(errors)


#: Table III queries kept in the DSE workloads: one small-K shape and one
#: large shape, because the tiling search's cost scales with the shape
DSE_QUERIES = ("L3", "L1")


#: each workload at its benchmark size
FACTORIES = {
    "serve-stream": lambda seed: ServeWorkload("serve-stream", seed, 4_000_000),
    "serve-chaos": lambda seed: ServeWorkload("serve-chaos", seed, 300_000, chaos=True),
    "serve-sharded": lambda seed: ServeWorkload(
        "serve-sharded", seed, 4_000_000, shards=min(2, os.cpu_count() or 1)
    ),
    "dse-table3-cold": lambda seed: DseWorkload("dse-table3-cold", seed, DSE_QUERIES, warm=False),
    "dse-table3-warm": lambda seed: DseWorkload("dse-table3-warm", seed, DSE_QUERIES, warm=True),
}
