"""Frozen reference paths that engine benchmarks time against.

The eval-throughput gates define their ``serial`` leg as the seed path:
no cache, one thread, and the original per-cell tiling loop that built a
:class:`~repro.mapping.tiling.TilePlan` for every ``(am, ak, an)`` grid
cell.  The library's tiling search is a NumPy array search now, so the
loop is kept here verbatim: it is the denominator of the speedup floors
and the oracle the tiling tests compare the array search against.
Only the benchmarks and tests call this module.
"""

from __future__ import annotations

from typing import Callable

from repro.core.analytical_model import AnalyticalModel
from repro.core.dse import DesignSpaceExplorer, DsePoint, DseResult, rank_key
from repro.hw.specs import DeviceSpec, VCK5000
from repro.kernels.precision import Precision
from repro.mapping.charm import DesignError
from repro.mapping.tiling import TilePlan
from repro.perf.cache import NullCache
from repro.perf.metrics import EvalStats
from repro.workloads.gemm import GemmShape


def seed_plan_tiling(
    workload: GemmShape,
    native: GemmShape,
    precision: Precision,
    device: DeviceSpec = VCK5000,
    double_buffered: bool = True,
    objective: Callable[[TilePlan], float] | None = None,
    max_multiple: int = 16,
    budget_bytes: int | None = None,
) -> TilePlan:
    """Choose PL-tile multiples minimising ``objective`` within PL memory.

    The default objective is total DRAM traffic (with tile count as the
    tie-breaker), which is what CHARM's DSE optimises for memory-bound
    workloads.  Raises if even the minimal (1, 1, 1) plan does not fit.
    """
    padded = workload.padded_to(native)
    limits = (
        min(max_multiple, padded.m // native.m),
        min(max_multiple, padded.k // native.k),
        min(max_multiple, padded.n // native.n),
    )
    best: TilePlan | None = None
    best_key: tuple[float, float] | None = None
    for am in range(1, limits[0] + 1):
        for ak in range(1, limits[1] + 1):
            for an in range(1, limits[2] + 1):
                plan = TilePlan(workload, native, precision, (am, ak, an), double_buffered)
                if not plan.fits(device, budget_bytes):
                    continue
                score = objective(plan) if objective else float(plan.traffic().total)
                key = (score, float(plan.num_dram_tiles))
                if best_key is None or key < best_key:
                    best, best_key = plan, key
    if best is None:
        minimal = TilePlan(workload, native, precision, (1, 1, 1), double_buffered)
        budget = device.pl_usable_bytes if budget_bytes is None else budget_bytes
        raise ValueError(
            f"no tile plan fits: native {native} needs "
            f"{minimal.pl_footprint_bytes()} B, budget is {budget} B"
        )
    return best


def seed_explore(
    explorer: DesignSpaceExplorer, workload: GemmShape, top: int = 10
) -> DseResult:
    """``explorer.explore(workload, top)`` with the seed loop planning every tile.

    Each candidate is estimated uncached with an explicit
    :func:`seed_plan_tiling` plan (bit-identical to the implicit plan the
    library picks) and skipped when it cannot tile ``workload``, exactly
    as ``DesignSpaceExplorer.explore`` skips it; points are ranked by the
    explorer's own key.
    """
    designs = explorer.candidates()
    points = []
    for design in designs:
        try:
            plan = seed_plan_tiling(
                workload,
                design.native_size,
                design.precision,
                device=design.device,
                double_buffered=design.pl_double_buffered,
            )
            estimate = AnalyticalModel(design, cache=NullCache()).estimate(
                workload, plan=plan
            )
        except (DesignError, ValueError):
            continue
        points.append(DsePoint(config=design.config, estimate=estimate))
    points.sort(key=rank_key)
    stats = EvalStats(evaluations=len(points), skipped=len(designs) - len(points))
    return DseResult(points[:top], stats)
