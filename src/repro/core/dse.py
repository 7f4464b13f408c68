"""Design-space exploration, CHARM-style with the paper's extensions.

CHARM's DSE searches AIE groupings and tile sizes for the best
performance/resource balance; Section V-A adds DRAM access ports as an
extra axis.  :class:`DesignSpaceExplorer` enumerates

* groupings ``(gm, gk, gn)`` whose product fits an AIE budget and whose
  ``gk`` is a multiple of the cascade pack depth,
* PLIO allocations within the device budget,
* optionally both DRAM port setups (2r1w / 4r2w),

evaluates each candidate with the analytical model, and returns the
candidates ranked by estimated latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analytical_model import AnalyticalModel, Estimate
from repro.hw.dram import CHARM_DEFAULT_PORTS, IMPROVED_PORTS
from repro.hw.specs import DeviceSpec, VCK5000
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign, DesignError
from repro.mapping.configs import KERNEL_BY_PRECISION, HardwareConfig
from repro.mapping.grouping import AieGrouping, pack_depth_for
from repro.obs.spans import span
from repro.perf.cache import EvalCache, get_cache
from repro.perf.metrics import GLOBAL_STATS, EvalStats, track
from repro.perf.parallel import parallel_map, resolve_jobs
from repro.workloads.gemm import GemmShape


@dataclass(frozen=True)
class DsePoint:
    """One explored design with its estimated performance."""

    config: HardwareConfig
    estimate: Estimate

    @property
    def seconds(self) -> float:
        return self.estimate.total_seconds

    @property
    def num_aies(self) -> int:
        return self.config.num_aies

    @property
    def num_plios(self) -> int:
        return self.config.num_plios


def rank_key(point: DsePoint) -> tuple[float, int, int]:
    """The DSE ranking order: latency, then fewer AIEs, then fewer PLIOs."""
    return (point.seconds, point.num_aies, point.num_plios)


class DseResult(list):
    """Ranked :class:`DsePoint` list plus evaluation accounting.

    Behaves exactly like the plain list earlier releases returned, with
    an :attr:`stats` field reporting how many candidates were evaluated,
    how many were skipped as infeasible for the workload (previously
    swallowed silently), and how the cache behaved.
    """

    def __init__(self, points: list[DsePoint], stats: EvalStats):
        super().__init__(points)
        self.stats = stats

    @property
    def evaluated(self) -> int:
        return self.stats.evaluations

    @property
    def skipped(self) -> int:
        return self.stats.skipped


class DesignSpaceExplorer:
    """Enumerates and ranks CHARM-style designs for a workload.

    ``jobs`` fans candidate evaluation out over worker threads through
    :func:`repro.perf.parallel.parallel_map`; results are deterministic
    and bit-identical to the serial order for any ``jobs``.  All model
    evaluations share ``cache`` (the process-wide one by default).
    """

    def __init__(
        self,
        precision: Precision,
        device: DeviceSpec = VCK5000,
        max_aies: int | None = None,
        explore_ports: bool = False,
        jobs: int = 1,
        cache: EvalCache | None = None,
        vectorize: bool = False,
    ):
        self.precision = precision
        self.device = device
        self.max_aies = device.num_aies if max_aies is None else max_aies
        self.explore_ports = explore_ports
        self.jobs = resolve_jobs(jobs)
        self.cache = get_cache() if cache is None else cache
        self.vectorize = vectorize
        self.kernel = KERNEL_BY_PRECISION[precision]

    # ------------------------------------------------------------------
    def candidate_groupings(self) -> list[AieGrouping]:
        """All pack-aligned groupings within the AIE budget."""
        depth = pack_depth_for(self.precision)
        groupings = []
        factors = [1, 2, 3, 4, 6, 8, 12, 16]
        k_factors = [depth * f for f in (1, 2, 4)]
        for gm in factors:
            for gk in k_factors:
                for gn in factors:
                    if gm * gk * gn <= self.max_aies:
                        groupings.append(
                            AieGrouping(gm, gk, gn, self.kernel, self.precision)
                        )
        return groupings

    def _plio_budget_for(self, grouping: AieGrouping) -> int:
        """PLIOs granted to a candidate: proportional to its AIE share,
        capped by the device budget (mirrors CHARM's resource balance)."""
        share = grouping.num_aies / self.device.num_aies
        return max(3, min(self.device.usable_plios, round(self.device.usable_plios * share)))

    def candidates(self) -> list[CharmDesign]:
        designs = []
        port_options = (
            (CHARM_DEFAULT_PORTS, IMPROVED_PORTS) if self.explore_ports else (IMPROVED_PORTS,)
        )
        for i, grouping in enumerate(self.candidate_groupings()):
            for ports in port_options:
                config = HardwareConfig(
                    name=f"dse-{i}-{ports}",
                    grouping=grouping,
                    num_plios=self._plio_budget_for(grouping),
                    dram_ports=ports,
                )
                design = CharmDesign(config, self.device)
                if design.is_valid():
                    designs.append(design)
        return designs

    # ------------------------------------------------------------------
    def _evaluate(self, design: CharmDesign, workload: GemmShape) -> DsePoint | None:
        """One candidate evaluation; None when it cannot tile ``workload``."""
        try:
            estimate = AnalyticalModel(design, cache=self.cache).estimate(workload)
        except (DesignError, ValueError):
            return None
        return DsePoint(config=design.config, estimate=estimate)

    def explore(
        self,
        workload: GemmShape,
        top: int = 10,
        jobs: int | None = None,
        vectorize: bool | None = None,
    ) -> DseResult:
        """Evaluate every candidate on ``workload``; best first.

        Returns a :class:`DseResult` — a ranked list whose ``stats``
        field reports evaluated/skipped candidate counts and cache
        behaviour for the batch.

        ``vectorize`` (default: the constructor's setting) switches to
        the two-phase fast path: a NumPy batch evaluation of the whole
        candidate grid (:mod:`repro.perf.vectorized`) ranks every
        candidate, then only the leading survivors are re-ranked through
        the scalar cached model, so the returned points — rankings and
        ``Estimate`` objects alike — are byte-identical to the serial
        path while skipping the per-candidate Python overhead for the
        rest of the grid.
        """
        jobs = self.jobs if jobs is None else resolve_jobs(jobs)
        vectorize = self.vectorize if vectorize is None else vectorize
        designs = self.candidates()
        hits0, misses0 = self.cache.hits, self.cache.misses
        stats = EvalStats(jobs=jobs)
        feasibility: tuple[int, int] | None = None
        explore_span = span(
            "dse.explore",
            track="dse",
            workload=str(workload),
            candidates=len(designs),
            jobs=jobs,
            vectorize=bool(vectorize),
        )
        with explore_span:
            with track(stats):
                if vectorize and designs:
                    from repro.perf.vectorized import (
                        batch_estimate_designs,
                        rank_feasible,
                    )

                    batch = batch_estimate_designs(designs, workload)
                    # generous safety margin over `top`: the exact pass
                    # re-sorts the survivors, so near-ties cannot be lost
                    coarse_k = max(4 * top, top + 16)
                    survivors = rank_feasible(batch)[:coarse_k]
                    feasibility = (batch.num_feasible, batch.num_infeasible)
                    outcomes = parallel_map(
                        lambda index: self._evaluate(designs[index], workload),
                        survivors,
                        jobs=jobs,
                    )
                else:
                    outcomes = parallel_map(
                        lambda design: self._evaluate(design, workload),
                        designs,
                        jobs=jobs,
                    )
            points = [point for point in outcomes if point is not None]
            if feasibility is None:
                stats.evaluations = len(points)
                stats.skipped = len(designs) - len(points)
            else:
                stats.evaluations, stats.skipped = feasibility
            stats.cache_hits = self.cache.hits - hits0
            stats.cache_misses = self.cache.misses - misses0
            GLOBAL_STATS.record(stats)
            explore_span.set(
                evaluated=stats.evaluations, skipped=stats.skipped
            )
            points.sort(key=rank_key)
            return DseResult(points[:top], stats)

    def best(self, workload: GemmShape) -> DsePoint:
        points = self.explore(workload, top=1)
        if not points:
            raise RuntimeError(
                f"no feasible design found for {workload} "
                f"({points.skipped} candidates skipped as infeasible)"
            )
        return points[0]
