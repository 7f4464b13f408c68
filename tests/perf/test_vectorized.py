"""Vectorized batch evaluation vs the scalar analytical model.

The contract under test (ISSUE 2): for randomized candidate grids across
precisions and DRAM port setups, batch totals match the scalar
``AnalyticalModel.estimate`` within 1e-9 relative (bit-identical on the
DSE candidate sets), and the feasibility mask reproduces the scalar
``DesignError``/``ValueError`` outcomes exactly.  On top of the kernel,
every batch driver's vectorized opt-in must return results identical to
its serial path.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytical_model import AnalyticalModel
from repro.core.dse import DesignSpaceExplorer
from repro.core.pareto import design_tradeoff_records
from repro.core.sensitivity import SensitivityAnalysis
from repro.core.sweep import sweep
from repro.hw.dram import DramPorts
from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import KERNEL_BY_PRECISION, HardwareConfig, config_by_name
from repro.mapping.grouping import AieGrouping
from repro.perf.cache import NULL_CACHE, NullCache
from repro.perf.vectorized import (
    CandidateGrid,
    batch_estimate,
    batch_estimate_designs,
    rank_feasible,
)
from repro.workloads.gemm import GemmShape

WORKLOAD = GemmShape(1024, 1024, 1024)


def scalar_outcome(design, workload):
    """(feasible, total_seconds) exactly as the batch drivers see it."""
    try:
        return True, AnalyticalModel(design, cache=NULL_CACHE).estimate(workload).total_seconds
    except ValueError:  # DesignError is a ValueError subclass
        return False, None


# ----------------------------------------------------------------------
# Property: randomized grids match the scalar model
# ----------------------------------------------------------------------
_PRECISIONS = st.sampled_from(list(Precision))
_PORTS = st.sampled_from(
    [DramPorts(2, 1), DramPorts(4, 2), DramPorts(8, 4), DramPorts(1, 1)]
)
_KERNEL_POOL = [
    GemmShape(32, 32, 32),
    GemmShape(64, 64, 64),
    GemmShape(64, 32, 64),
    GemmShape(128, 128, 128),  # infeasible at FP32, exercises the memory rules
]
_DIM = st.integers(1, 2048)


@st.composite
def design_params(draw):
    precision = draw(_PRECISIONS)
    kernel = draw(st.sampled_from(_KERNEL_POOL))
    gm = draw(st.integers(1, 16))
    gk = draw(st.integers(1, 16))
    gn = draw(st.integers(1, 16))
    num_plios = draw(st.integers(3, 320))
    ports = draw(_PORTS)
    double_buffered = draw(st.booleans())
    starved = draw(st.booleans())
    return precision, kernel, gm, gk, gn, num_plios, ports, double_buffered, starved


def build_design(params):
    precision, kernel, gm, gk, gn, num_plios, ports, double_buffered, starved = params
    device = (
        dataclasses.replace(VCK5000, pl_usable_fraction=0.01) if starved else VCK5000
    )
    config = HardwareConfig(
        name=f"prop-{gm}x{gk}x{gn}-{num_plios}-{ports}",
        grouping=AieGrouping(gm, gk, gn, kernel, precision),
        num_plios=num_plios,
        dram_ports=ports,
    )
    return CharmDesign(config, device, pl_double_buffered=double_buffered)


class TestPropertyAgainstScalar:
    @given(design_params(), _DIM, _DIM, _DIM)
    @settings(max_examples=60, deadline=None)
    def test_single_candidate_matches_scalar(self, params, m, k, n):
        design = build_design(params)
        workload = GemmShape(m, k, n)
        batch = batch_estimate_designs([design], workload)
        feasible, total = scalar_outcome(design, workload)
        assert bool(batch.feasible[0]) == feasible
        if feasible:
            assert float(batch.total_seconds[0]) == pytest.approx(total, rel=1e-9)
        else:
            assert float(batch.total_seconds[0]) == float("inf")

    @given(st.lists(design_params(), min_size=2, max_size=6), _DIM, _DIM, _DIM)
    @settings(max_examples=30, deadline=None)
    def test_mixed_feasibility_grid(self, params_list, m, k, n):
        precision = params_list[0][0]
        designs = [
            build_design((precision,) + tuple(p[1:])) for p in params_list
        ]
        workload = GemmShape(m, k, n)
        batch = batch_estimate_designs(designs, workload)
        for i, design in enumerate(designs):
            feasible, total = scalar_outcome(design, workload)
            assert bool(batch.feasible[i]) == feasible, design.config.name
            if feasible:
                assert float(batch.total_seconds[i]) == pytest.approx(total, rel=1e-9)


# ----------------------------------------------------------------------
# Bit-identity on the full DSE candidate sets
# ----------------------------------------------------------------------
class TestBitIdentityOnDseGrids:
    @pytest.mark.parametrize("precision", list(Precision))
    @pytest.mark.parametrize(
        "workload",
        [WORKLOAD, GemmShape(4096, 512, 2048), GemmShape(100, 333, 70)],
    )
    def test_totals_bit_identical(self, precision, workload):
        explorer = DesignSpaceExplorer(
            precision, max_aies=128, explore_ports=True, cache=NullCache()
        )
        designs = explorer.candidates()
        batch = batch_estimate_designs(designs, workload)
        for i, design in enumerate(designs):
            feasible, total = scalar_outcome(design, workload)
            assert bool(batch.feasible[i]) == feasible
            if feasible:
                assert float(batch.total_seconds[i]) == total  # bitwise

    def test_tile_plans_match_scalar_planner(self):
        explorer = DesignSpaceExplorer(Precision.FP32, max_aies=128, cache=NullCache())
        designs = explorer.candidates()
        batch = batch_estimate_designs(designs, WORKLOAD)
        for i, design in enumerate(designs):
            plan = design.tile_plan(WORKLOAD)
            assert tuple(int(x) for x in batch.multiples[i]) == plan.multiples
            assert int(batch.num_dram_tiles[i]) == plan.num_dram_tiles

    def test_infeasible_candidates_counted_not_dropped(self):
        starved = dataclasses.replace(VCK5000, pl_usable_fraction=0.01)
        explorer = DesignSpaceExplorer(
            Precision.FP32, device=starved, max_aies=400, explore_ports=True,
            cache=NullCache(),
        )
        designs = explorer.candidates()
        batch = batch_estimate_designs(designs, WORKLOAD)
        assert len(batch) == len(designs)
        assert batch.num_infeasible > 0
        assert batch.num_feasible + batch.num_infeasible == len(designs)
        infeasible = np.flatnonzero(~batch.feasible)
        assert np.all(np.isinf(batch.total_seconds[infeasible]))

    def test_materialized_estimates_equal_scalar(self):
        explorer = DesignSpaceExplorer(Precision.FP32, max_aies=64, cache=NullCache())
        designs = explorer.candidates()
        batch = batch_estimate_designs(designs, WORKLOAD)
        for i in range(len(designs)):
            reference = AnalyticalModel(designs[i], cache=NULL_CACHE).estimate(WORKLOAD)
            assert batch.estimate(i) == reference


# ----------------------------------------------------------------------
# Grid construction contracts
# ----------------------------------------------------------------------
class TestCandidateGrid:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CandidateGrid.from_designs([], WORKLOAD)

    def test_rejects_mixed_precision(self):
        designs = [
            CharmDesign(config_by_name("C1")),
            CharmDesign(config_by_name("C7")),
        ]
        with pytest.raises(ValueError):
            CandidateGrid.from_designs(designs, WORKLOAD)

    def test_rejects_workload_length_mismatch(self):
        design = CharmDesign(config_by_name("C1"))
        with pytest.raises(ValueError):
            CandidateGrid.from_designs([design], [WORKLOAD, WORKLOAD])

    def test_per_candidate_workloads(self):
        design = CharmDesign(config_by_name("C1"))
        shapes = [GemmShape(256, 256, 256), GemmShape(2048, 2048, 2048)]
        batch = batch_estimate_designs([design, design], shapes)
        for i, shape in enumerate(shapes):
            reference = AnalyticalModel(design, cache=NULL_CACHE).estimate(shape)
            assert float(batch.total_seconds[i]) == reference.total_seconds

    def test_from_arrays_matches_designs(self):
        explorer = DesignSpaceExplorer(Precision.FP32, max_aies=64, cache=NullCache())
        groupings = [
            (g.gm, g.gk, g.gn, explorer._plio_budget_for(g))
            for g in explorer.candidate_groupings()
        ]
        grid = CandidateGrid.from_arrays(
            Precision.FP32,
            [g[0] for g in groupings],
            [g[1] for g in groupings],
            [g[2] for g in groupings],
            [g[3] for g in groupings],
            WORKLOAD,
        )
        batch = batch_estimate(grid)
        for i, (gm, gk, gn, plios) in enumerate(groupings):
            config = HardwareConfig(
                name=f"arr-{i}",
                grouping=AieGrouping(gm, gk, gn, explorer.kernel, Precision.FP32),
                num_plios=plios,
            )
            feasible, total = scalar_outcome(CharmDesign(config), WORKLOAD)
            assert bool(batch.feasible[i]) == feasible
            if feasible:
                assert float(batch.total_seconds[i]) == total

    def test_max_multiple_below_one_is_rejected(self):
        batch = CandidateGrid.from_designs([CharmDesign(config_by_name("C1"))], WORKLOAD)
        with pytest.raises(ValueError, match="max_multiple must be >= 1, got 0"):
            batch_estimate(batch, max_multiple=0)

    def test_estimate_raises_for_infeasible_index(self):
        starved = dataclasses.replace(VCK5000, pl_usable_fraction=0.001)
        design = CharmDesign(config_by_name("C6"), device=starved)
        batch = batch_estimate_designs([design], WORKLOAD)
        assert not batch.feasible[0]
        with pytest.raises(ValueError):
            batch.estimate(0)


# ----------------------------------------------------------------------
# Driver identity: DSE / sensitivity / pareto / sweep
# ----------------------------------------------------------------------
def _ranking(points):
    return json.dumps(
        [
            (
                repr(p.config.grouping),
                p.config.num_plios,
                str(p.config.dram_ports),
                repr(p.seconds),
            )
            for p in points
        ]
    )


class TestDriverIdentity:
    @pytest.mark.parametrize("precision", [Precision.FP32, Precision.INT8])
    def test_dse_rankings_byte_identical(self, precision):
        serial = DesignSpaceExplorer(
            precision, max_aies=128, explore_ports=True, cache=NullCache()
        ).explore(WORKLOAD)
        vectorized = DesignSpaceExplorer(
            precision, max_aies=128, explore_ports=True, cache=NullCache(),
            vectorize=True,
        ).explore(WORKLOAD)
        assert _ranking(serial) == _ranking(vectorized)
        assert [p.estimate for p in serial] == [p.estimate for p in vectorized]
        assert serial.evaluated == vectorized.evaluated
        assert serial.skipped == vectorized.skipped

    def test_explore_flag_overrides_constructor(self):
        explorer = DesignSpaceExplorer(
            Precision.FP32, max_aies=64, cache=NullCache(), vectorize=True
        )
        assert _ranking(explorer.explore(WORKLOAD, vectorize=False)) == _ranking(
            explorer.explore(WORKLOAD)
        )

    def test_dse_counts_infeasible(self):
        starved = dataclasses.replace(VCK5000, pl_usable_fraction=0.01)
        serial = DesignSpaceExplorer(
            Precision.FP32, device=starved, max_aies=400, cache=NullCache()
        ).explore(WORKLOAD)
        vectorized = DesignSpaceExplorer(
            Precision.FP32, device=starved, max_aies=400, cache=NullCache(),
            vectorize=True,
        ).explore(WORKLOAD)
        assert serial.skipped > 0
        assert (serial.evaluated, serial.skipped) == (
            vectorized.evaluated,
            vectorized.skipped,
        )
        assert _ranking(serial) == _ranking(vectorized)

    def test_rank_feasible_matches_scalar_sort(self):
        explorer = DesignSpaceExplorer(
            Precision.FP32, max_aies=128, explore_ports=True, cache=NullCache()
        )
        designs = explorer.candidates()
        batch = batch_estimate_designs(designs, WORKLOAD)
        ranked = rank_feasible(batch)
        keyed = sorted(
            (i for i in range(len(designs)) if batch.feasible[i]),
            key=lambda i: (
                float(batch.total_seconds[i]),
                designs[i].config.num_aies,
                designs[i].config.num_plios,
            ),
        )
        assert ranked == keyed

    def test_sensitivity_identity(self):
        design = CharmDesign(config_by_name("C6"))
        serial = SensitivityAnalysis(design, WORKLOAD, cache=NullCache()).summary()
        vectorized = SensitivityAnalysis(
            design, WORKLOAD, cache=NullCache(), vectorize=True
        ).summary()
        for axis in serial:
            assert [p.estimate for p in serial[axis]] == [
                p.estimate for p in vectorized[axis]
            ], axis

    def test_sensitivity_infeasible_axis_raises_like_serial(self):
        design = CharmDesign(config_by_name("C6"))
        serial = SensitivityAnalysis(design, WORKLOAD, cache=NullCache())
        vectorized = SensitivityAnalysis(
            design, WORKLOAD, cache=NullCache(), vectorize=True
        )
        with pytest.raises(ValueError):
            serial.pl_memory_fraction([0.0001])
        with pytest.raises(ValueError):
            vectorized.pl_memory_fraction([0.0001])

    def test_pareto_records_identical(self):
        serial = design_tradeoff_records(WORKLOAD, Precision.FP32, max_aies=64)
        vectorized = design_tradeoff_records(
            WORKLOAD, Precision.FP32, max_aies=64, vectorize=True
        )
        assert serial == vectorized

    def test_sweep_batch_evaluate(self):
        axes = {"x": [1, 2, 3], "y": [10, 20]}

        def evaluate(x, y):
            return None if x == 2 else {"z": x * y}

        serial = sweep(axes, evaluate)
        batch = sweep(
            axes, evaluate, batch_evaluate=lambda pts: [evaluate(**p) for p in pts]
        )
        assert serial.records == batch.records
        assert serial.stats.skipped == batch.stats.skipped

    def test_sweep_batch_evaluate_length_mismatch(self):
        with pytest.raises(ValueError):
            sweep({"x": [1, 2]}, lambda x: {"y": x}, batch_evaluate=lambda pts: [None])


class TestServingPrewarmIdentity:
    def test_service_cache_identical(self):
        from repro.core.multi_acc import AcceleratorPartition
        from repro.sim.serving import ServingSimulator

        partition = AcceleratorPartition(
            [config_by_name("C1"), config_by_name("C7")]  # mixed precision
        )
        shapes = [WORKLOAD, GemmShape(64, 64, 64), GemmShape(333, 100, 70)]
        serial = ServingSimulator(partition)
        vectorized = ServingSimulator(partition)
        assert serial.prewarm(shapes) == vectorized.prewarm(shapes, vectorize=True)
        assert serial._service_cache == vectorized._service_cache
        assert serial.stats.skipped == vectorized.stats.skipped
