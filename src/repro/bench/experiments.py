"""Experiment kinds the repeated-run harness can drive.

Every experiment implements the same tiny protocol: :meth:`prepare`
resolves shared state once (partitions, prewarmed service tables),
then :meth:`run_repeat` runs one seeded repeat under a list of noise
models and returns its metrics.  All randomness — per-repeat trace
seeds, noise factors — derives from the repeat seed via
:func:`repro.sim.streaming.derive_seed` on fixed lanes, so repeats are
reproducible independently of execution order, ``--jobs`` fan-out,
``--shards``, or engine choice.

Noise routing per kind:

* ``serving`` / ``sweep`` — service-time factors applied through
  :meth:`repro.sim.serving.ServingSimulator.perturbed` (the perturbed
  cache flows into every dispatch engine and into sharded-cluster
  worker payloads byte-identically);
* ``estimate`` — clock variability re-runs the analytical model on a
  :func:`repro.hw.faults.derate_clock`-derated device; DRAM/thermal
  models contribute a multiplicative slowdown on the modeled total;
* ``pipeline`` — one uniform stage factor via
  :meth:`repro.sim.engine.PipelineSimulator.derated`;
* ``eval`` — a pure wall-clock measurement (DSE engine throughput);
  noise models do not apply and are rejected loudly.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Sequence

from repro.bench.noise import (
    NoiseModel,
    combined_clock_fraction,
    combined_service_factors,
    combined_stage_factor,
)
from repro.bench.scenarios import (
    EVAL_WORKLOAD,
    MEAN_INTERARRIVAL,
    QUANTILE_ERROR,
    SERVING_CONFIGS,
    SERVING_SHAPES,
    SERVING_TRACE_SEED,
    build_partition,
    ranking_bytes,
)
from repro.sim.streaming import derive_seed, generate_trace_soa
from repro.workloads.gemm import GemmShape

#: derive_seed lanes, fixed so adding a consumer never shifts another
_TRACE_LANE = 0
_SWEEP_LANE = 1


class Experiment:
    """One benchmarkable experiment kind (see module docstring)."""

    kind = "abstract"

    def params(self) -> dict[str, Any]:
        """JSON-serializable parameters, recorded into result entries."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Resolve shared state once before any repeat runs."""

    def run_repeat(
        self, repeat_seed: int, noise: list[NoiseModel] | None
    ) -> dict[str, float]:
        """One seeded repeat; returns this repeat's metric sample."""
        raise NotImplementedError


def _report_metrics(report, wall_seconds: float, num_requests: int) -> dict[str, float]:
    p50, p99 = report.latency_percentiles([50, 99])
    completed = report.count if hasattr(report, "count") else len(report.completed)
    metrics = {
        "p50": p50,
        "p99": p99,
        "mean_latency": report.mean_latency(),
        "throughput_rps": report.throughput_rps,
        "completed_requests": float(completed),
        "completed_fraction": completed / num_requests,
        "wall_rps": num_requests / wall_seconds if wall_seconds > 0 else 0.0,
    }
    summary = report.fault_summary()
    if summary.get("windows"):
        metrics["shed_requests"] = float(summary.get("shed", 0))
        metrics["fault_retries"] = float(summary.get("retries", 0))
    return metrics


class ServingExperiment(Experiment):
    """N repeats of one serving-trace simulation."""

    kind = "serving"

    def __init__(
        self,
        shapes: Sequence[GemmShape] = SERVING_SHAPES,
        configs: Sequence[str] = SERVING_CONFIGS,
        num_requests: int = 100_000,
        mean_interarrival: float = MEAN_INTERARRIVAL,
        dispatch: str = "auto",
        streaming: bool = True,
        quantile_error: float = QUANTILE_ERROR,
        shards: int = 1,
        start_method: str | None = None,
        faults=None,
        fault_policy=None,
        vary_trace: bool = True,
        trace_seed: int = SERVING_TRACE_SEED,
    ):
        self.shapes = tuple(shapes)
        self.configs = tuple(configs)
        self.num_requests = num_requests
        self.mean_interarrival = mean_interarrival
        self.dispatch = dispatch
        self.streaming = streaming
        self.quantile_error = quantile_error
        self.shards = shards
        self.start_method = start_method
        self.faults = faults
        self.fault_policy = fault_policy
        #: False pins every repeat to ``trace_seed`` — simulated metrics
        #: become constants (baseline-comparable) and repeats measure
        #: wall-clock variability only
        self.vary_trace = vary_trace
        self.trace_seed = trace_seed
        self._simulator = None
        self._names: tuple[str, ...] = ()

    def params(self) -> dict[str, Any]:
        return {
            "shapes": [str(shape) for shape in self.shapes],
            "configs": list(self.configs),
            "requests": self.num_requests,
            "mean_interarrival": self.mean_interarrival,
            "dispatch": self.dispatch,
            "streaming": self.streaming,
            "quantile_error": self.quantile_error,
            "shards": self.shards,
            "faulted": self.faults is not None and not self.faults.is_empty,
            "vary_trace": self.vary_trace,
            "trace_seed": self.trace_seed,
        }

    def prepare(self) -> None:
        from repro.sim.serving import ServingSimulator

        partition = build_partition(self.configs)
        self._simulator = ServingSimulator(partition)
        self._simulator.prewarm(self.shapes)
        self._names = tuple(partition.designs)

    def _perturbed(self, repeat_seed: int, noise: list[NoiseModel] | None):
        """The repeat's simulator: base, or a noise-perturbed copy."""
        factors = combined_service_factors(
            noise, repeat_seed, len(self._names), len(self.shapes)
        )
        if factors is None:
            return self._simulator
        table = {
            (name, shape): factors[i, j]
            for i, name in enumerate(self._names)
            for j, shape in enumerate(self.shapes)
        }
        return self._simulator.perturbed(lambda name, shape: table[(name, shape)])

    def run_repeat(
        self, repeat_seed: int, noise: list[NoiseModel] | None
    ) -> dict[str, float]:
        if self._simulator is None:
            self.prepare()
        trace_seed = (
            derive_seed(repeat_seed, _TRACE_LANE)
            if self.vary_trace
            else self.trace_seed
        )
        simulator = self._perturbed(repeat_seed, noise)
        started = time.perf_counter()
        if self.shards > 1:
            from repro.sim.cluster_serving import serve_sharded

            fleet = serve_sharded(
                simulator,
                self.shapes,
                self.num_requests,
                self.mean_interarrival,
                shards=self.shards,
                seed=trace_seed,
                dispatch=self.dispatch,
                quantile_error=self.quantile_error,
                start_method=self.start_method,
                faults=self.faults,
                fault_policy=self.fault_policy,
            )
            report = fleet.report
        else:
            trace = generate_trace_soa(
                self.shapes, self.num_requests, self.mean_interarrival,
                seed=trace_seed,
            )
            report = simulator.run(
                trace,
                streaming=self.streaming,
                dispatch=self.dispatch,
                quantile_error=self.quantile_error,
                faults=self.faults,
                fault_policy=self.fault_policy,
            )
        wall = time.perf_counter() - started
        return _report_metrics(report, wall, self.num_requests)


class LoadSweepExperiment(Experiment):
    """N repeats of an offered-load sweep (knee/plateau detection)."""

    kind = "sweep"

    def __init__(
        self,
        shapes: Sequence[GemmShape] = SERVING_SHAPES,
        configs: Sequence[str] = SERVING_CONFIGS,
        offered_loads: Sequence[float] | None = None,
        num_requests: int = 2000,
        jobs: int = 1,
        shards: int = 1,
        start_method: str | None = None,
        faults=None,
        fault_policy=None,
        quantile_error: float = QUANTILE_ERROR,
    ):
        self.shapes = tuple(shapes)
        self.configs = tuple(configs)
        self.offered_loads = list(offered_loads) if offered_loads else None
        self.num_requests = num_requests
        self.jobs = jobs
        self.shards = shards
        self.start_method = start_method
        self.faults = faults
        self.fault_policy = fault_policy
        self.quantile_error = quantile_error
        self._simulator = None
        self._names: tuple[str, ...] = ()

    def params(self) -> dict[str, Any]:
        return {
            "shapes": [str(shape) for shape in self.shapes],
            "configs": list(self.configs),
            "offered_loads": self.offered_loads,
            "requests_per_point": self.num_requests,
            "jobs": self.jobs,
            "shards": self.shards,
            "faulted": self.faults is not None and not self.faults.is_empty,
        }

    def prepare(self) -> None:
        from repro.sim.serving import ServingSimulator

        partition = build_partition(self.configs)
        self._simulator = ServingSimulator(partition)
        self._simulator.prewarm(self.shapes)
        self._names = tuple(partition.designs)

    def run_repeat(
        self, repeat_seed: int, noise: list[NoiseModel] | None
    ) -> dict[str, float]:
        from repro.sim.serving import load_sweep

        if self._simulator is None:
            self.prepare()
        factors = combined_service_factors(
            noise, repeat_seed, len(self._names), len(self.shapes)
        )
        simulator = self._simulator
        if factors is not None:
            table = {
                (name, shape): factors[i, j]
                for i, name in enumerate(self._names)
                for j, shape in enumerate(self.shapes)
            }
            simulator = simulator.perturbed(
                lambda name, shape: table[(name, shape)]
            )
        started = time.perf_counter()
        result = load_sweep(
            simulator,
            self.shapes,
            self.offered_loads,
            num_requests=self.num_requests,
            seed=derive_seed(repeat_seed, _SWEEP_LANE),
            quantile_error=self.quantile_error,
            jobs=self.jobs,
            shards=self.shards,
            start_method=self.start_method,
            faults=self.faults,
            fault_policy=self.fault_policy,
        )
        wall = time.perf_counter() - started
        last = result.points[-1]
        metrics = {
            "wall_seconds_sweep": wall,
            "points": float(len(result.points)),
            "max_achieved_rps": max(p.achieved_rps for p in result.points),
            "last_p99": last.p99,
            "early_exit": 1.0 if result.early_exit else 0.0,
        }
        # knee/plateau only exist once the sweep saturates; absent
        # metrics are summarized over the repeats that produced them
        if result.knee_rps is not None:
            metrics["knee_rps"] = result.knee_rps
        if result.plateau_rps is not None:
            metrics["plateau_rps"] = result.plateau_rps
        return metrics


class EstimateExperiment(Experiment):
    """N repeats of one analytical-model estimate."""

    kind = "estimate"

    def __init__(self, config: str = "C5", workload: GemmShape = EVAL_WORKLOAD):
        self.config_name = config
        self.workload = workload
        self._config = None

    def params(self) -> dict[str, Any]:
        return {"config": self.config_name, "workload": str(self.workload)}

    def prepare(self) -> None:
        from repro.mapping.configs import config_by_name

        self._config = config_by_name(self.config_name)

    def run_repeat(
        self, repeat_seed: int, noise: list[NoiseModel] | None
    ) -> dict[str, float]:
        from repro.core.analytical_model import AnalyticalModel
        from repro.hw.faults import derate_clock
        from repro.mapping.charm import CharmDesign

        if self._config is None:
            self.prepare()
        fraction = combined_clock_fraction(noise, repeat_seed)
        design = CharmDesign(self._config)
        if fraction < 1.0:
            design = CharmDesign(self._config, device=derate_clock(design.device, fraction))
        estimate = AnalyticalModel(design).estimate(self.workload)
        # DRAM/thermal contention on top of the (possibly clock-derated)
        # model output — the model itself has no contention term
        slowdown = combined_stage_factor(noise, repeat_seed)
        total = estimate.total_seconds * slowdown
        return {
            "total_seconds": total,
            "throughput_gops": self.workload.flops / total / 1e9,
            "efficiency": estimate.efficiency / slowdown,
            "clock_fraction": fraction,
        }


class EvalThroughputExperiment(Experiment):
    """N repeats of the DSE evaluation-engine throughput measurement.

    A pure wall-clock experiment (the harness analogue of
    ``benchmarks/bench_eval_throughput.py``): serial seed-path
    exploration (uncached, frozen seed tiling loop) vs cached+parallel
    vs vectorized, with byte-identical ranking verification.  Noise
    models make no sense here — wall time is the measured quantity — so
    passing any is an error.
    """

    kind = "eval"

    def __init__(
        self,
        workload: GemmShape = EVAL_WORKLOAD,
        max_aies: int = 48,
        inner_repeats: int = 3,
        jobs: int = 2,
    ):
        self.workload = workload
        self.max_aies = max_aies
        self.inner_repeats = inner_repeats
        self.jobs = jobs

    def params(self) -> dict[str, Any]:
        return {
            "workload": str(self.workload),
            "max_aies": self.max_aies,
            "inner_repeats": self.inner_repeats,
            "jobs": self.jobs,
        }

    def _explorer(self, jobs: int, cache, vectorize: bool = False):
        from repro.core.dse import DesignSpaceExplorer
        from repro.kernels.precision import Precision

        return DesignSpaceExplorer(
            Precision.FP32,
            max_aies=self.max_aies,
            explore_ports=True,
            jobs=jobs,
            cache=cache,
            vectorize=vectorize,
        )

    def _time(self, explore):
        started = time.perf_counter()
        result = explore(self.workload)
        for _ in range(self.inner_repeats - 1):
            result = explore(self.workload)
        return time.perf_counter() - started, result

    def run_repeat(
        self, repeat_seed: int, noise: list[NoiseModel] | None
    ) -> dict[str, float]:
        from repro.bench.reference import seed_explore
        from repro.perf.cache import EvalCache, NullCache

        if noise:
            raise ValueError(
                "the eval experiment measures wall-clock engine throughput; "
                "noise models do not apply"
            )
        serial_seconds, serial = self._time(
            partial(seed_explore, self._explorer(1, NullCache()))
        )
        parallel_seconds, parallel = self._time(
            self._explorer(self.jobs, EvalCache()).explore
        )
        vectorized_seconds, vectorized = self._time(
            self._explorer(self.jobs, EvalCache(), vectorize=True).explore
        )
        identical = (
            ranking_bytes(serial) == ranking_bytes(parallel) == ranking_bytes(vectorized)
        )
        return {
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup_cached_parallel": serial_seconds / parallel_seconds,
            "speedup_vectorized": serial_seconds / vectorized_seconds,
            "rankings_identical": 1.0 if identical else 0.0,
        }


#: CHARM-flavoured load/compute/store dataflow for the pipeline kind
DEFAULT_PIPELINE_STAGES = (
    ("load", 1.2e-4, 2),
    ("compute", 8.0e-5, 4),
    ("store", 6.0e-5, 2),
)


class PipelineExperiment(Experiment):
    """N repeats of a pipeline fill/drain replay under derating."""

    kind = "pipeline"

    def __init__(
        self,
        stages: Sequence[tuple[str, float, int]] = DEFAULT_PIPELINE_STAGES,
        items: int = 4096,
    ):
        self.stages = tuple(stages)
        self.items = items
        self._simulator = None

    def params(self) -> dict[str, Any]:
        return {
            "stages": [list(stage) for stage in self.stages],
            "items": self.items,
        }

    def prepare(self) -> None:
        from repro.sim.engine import PipelineSimulator, PipelineStage

        self._simulator = PipelineSimulator(
            [
                PipelineStage(name, service, slots)
                for name, service, slots in self.stages
            ]
        )

    def run_repeat(
        self, repeat_seed: int, noise: list[NoiseModel] | None
    ) -> dict[str, float]:
        if self._simulator is None:
            self.prepare()
        # thermal/DRAM slowdowns and clock derating all scale constant
        # stage services uniformly; PipelineSimulator.derated keeps the
        # derated stages vectorize-eligible
        factor = combined_stage_factor(noise, repeat_seed) / combined_clock_fraction(
            noise, repeat_seed
        )
        simulator = self._simulator
        if factor != 1.0:
            simulator = simulator.derated(
                {name: factor for name, _, _ in self.stages}
            )
        result = simulator.run(self.items)
        makespan = result.makespan
        bottleneck = max(
            range(len(self.stages)), key=lambda index: result.stage_busy(index)
        )
        return {
            "makespan_seconds": makespan,
            "items_per_sec": self.items / makespan if makespan > 0 else 0.0,
            "bottleneck_busy_fraction": (
                result.stage_busy(bottleneck) / makespan if makespan > 0 else 0.0
            ),
        }
