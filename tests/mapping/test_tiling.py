"""Three-level tiling tests (Fig. 2 / Section IV-A)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.reference import seed_plan_tiling
from repro.core.dse import DesignSpaceExplorer
from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.tiling import TilePlan, plan_tiling
from repro.perf.cache import NullCache
from repro.workloads.dnn import DNN_WORKLOADS
from repro.workloads.gemm import GemmShape

NATIVE_C6 = GemmShape(384, 128, 256)
NATIVE_C1 = GemmShape(32, 128, 128)


def dse_natives(precision: Precision) -> list[GemmShape]:
    """Every distinct native size the full-device DSE grid proposes."""
    designs = DesignSpaceExplorer(precision, cache=NullCache()).candidates()
    return sorted({design.native_size for design in designs})


FP32_NATIVES = dse_natives(Precision.FP32)
ALL_NATIVES = sorted(set(FP32_NATIVES) | set(dse_natives(Precision.INT8)))

#: custom objectives the array search must honour like the seed loop
OBJECTIVES = (
    lambda plan: plan.num_dram_tiles,
    lambda plan: -plan.pl_footprint_bytes(),
    lambda plan: float(plan.traffic().read_a),
)


def outcome(planner, *args, **kwargs):
    """The chosen multiples, or the error text when no plan fits."""
    try:
        return planner(*args, **kwargs).multiples
    except ValueError as error:
        return str(error)


def make_plan(multiples=(1, 1, 1), workload=GemmShape(2048, 2048, 2048),
              native=NATIVE_C6, precision=Precision.FP32, double=True):
    return TilePlan(workload, native, precision, multiples, double)


class TestGeometry:
    def test_padding(self):
        plan = make_plan()
        assert plan.padded == GemmShape(2304, 2048, 2048)

    def test_pl_tile_scales_native(self):
        plan = make_plan((2, 1, 3))
        assert plan.pl_tile == GemmShape(768, 128, 768)

    def test_dram_tile_counts(self):
        plan = make_plan((1, 1, 1))
        assert plan.dram_tile_counts == (6, 16, 8)

    def test_num_dram_tiles(self):
        plan = make_plan((1, 1, 1))
        assert plan.num_dram_tiles == 6 * 16 * 8

    def test_pl_tiles_per_dram_tile(self):
        assert make_plan((2, 3, 4)).pl_tiles_per_dram_tile == 24

    def test_total_native_tiles_conserved(self):
        """num_dram_tiles * pl_tiles_per_dram_tile covers the padded
        workload exactly when multiples divide the tile counts."""
        plan = make_plan((2, 2, 2))
        assert (
            plan.num_dram_tiles * plan.pl_tiles_per_dram_tile
            >= plan.total_native_tiles
        )

    def test_rejects_zero_multiples(self):
        with pytest.raises(ValueError):
            make_plan((0, 1, 1))


class TestFootprint:
    def test_double_buffering_doubles_footprint(self):
        db = make_plan((1, 1, 1), double=True)
        sb = make_plan((1, 1, 1), double=False)
        assert db.pl_footprint_bytes() == 2 * sb.pl_footprint_bytes()

    def test_footprint_components(self):
        plan = make_plan((1, 1, 1))
        eb = 4
        expected = 2 * (
            NATIVE_C6.bytes_a(eb) + NATIVE_C6.bytes_b(eb) + NATIVE_C6.bytes_c(eb)
        )
        assert plan.pl_footprint_bytes() == expected

    def test_fits_respects_budget_override(self):
        plan = make_plan((1, 1, 1))
        assert plan.fits(VCK5000)
        assert not plan.fits(VCK5000, budget_bytes=plan.pl_footprint_bytes() - 1)


class TestTraffic:
    def test_a_reread_per_n_tile(self):
        plan = make_plan((1, 1, 1))
        traffic = plan.traffic()
        tn = plan.dram_tile_counts[2]
        assert traffic.read_a == plan.padded.bytes_a(4) * tn

    def test_b_reread_per_m_tile(self):
        plan = make_plan((1, 1, 1))
        traffic = plan.traffic()
        tm = plan.dram_tile_counts[0]
        assert traffic.read_b == plan.padded.bytes_b(4) * tm

    def test_c_written_once(self):
        plan = make_plan((1, 1, 1))
        assert plan.traffic().write_c == plan.padded.bytes_c(4)

    def test_tiling_overhead_at_least_one(self):
        assert make_plan((1, 1, 1)).traffic().tiling_overhead >= 1.0

    def test_single_tile_plan_has_no_overhead(self):
        workload = NATIVE_C6
        plan = TilePlan(workload, NATIVE_C6, Precision.FP32, (1, 1, 1))
        assert plan.traffic().tiling_overhead == pytest.approx(1.0)

    def test_bigger_tiles_less_traffic(self):
        small = make_plan((1, 1, 1)).traffic().total
        large = make_plan((2, 1, 2)).traffic().total
        assert large < small

    def test_effective_oi_below_ideal(self):
        """Fig. 15: tiling overhead pushes OI left."""
        plan = make_plan((1, 1, 1))
        ideal = plan.workload.operational_intensity(4)
        assert plan.effective_operational_intensity() < ideal

    def test_c_write_fraction(self):
        plan = make_plan((1, 1, 1))
        assert plan.c_write_fraction == pytest.approx(1 / 16)


class TestPlanSearch:
    def test_minimal_plan_when_budget_tight(self):
        minimal = TilePlan(GemmShape(2048, 2048, 2048), NATIVE_C6, Precision.FP32, (1, 1, 1))
        plan = plan_tiling(
            GemmShape(2048, 2048, 2048),
            NATIVE_C6,
            Precision.FP32,
            budget_bytes=minimal.pl_footprint_bytes(),
        )
        assert plan.multiples == (1, 1, 1)

    def test_search_never_exceeds_budget(self):
        plan = plan_tiling(GemmShape(2048, 2048, 2048), NATIVE_C6, Precision.FP32)
        assert plan.fits(VCK5000)

    def test_search_minimises_traffic(self):
        chosen = plan_tiling(GemmShape(2048, 2048, 2048), NATIVE_C1, Precision.FP32)
        baseline = TilePlan(
            GemmShape(2048, 2048, 2048), NATIVE_C1, Precision.FP32, (1, 1, 1)
        )
        assert chosen.traffic().total <= baseline.traffic().total

    def test_raises_when_nothing_fits(self):
        with pytest.raises(ValueError, match="no tile plan fits"):
            plan_tiling(
                GemmShape(2048, 2048, 2048),
                NATIVE_C6,
                Precision.FP32,
                budget_bytes=1024,
            )

    def test_custom_objective(self):
        # minimise the number of DRAM tiles instead of traffic
        plan = plan_tiling(
            GemmShape(2048, 2048, 2048),
            NATIVE_C1,
            Precision.FP32,
            objective=lambda p: p.num_dram_tiles,
        )
        greedy = plan_tiling(GemmShape(2048, 2048, 2048), NATIVE_C1, Precision.FP32)
        assert plan.num_dram_tiles <= greedy.num_dram_tiles

    def test_small_workload_single_tile(self):
        plan = plan_tiling(NATIVE_C1, NATIVE_C1, Precision.FP32)
        assert plan.num_dram_tiles == 1

    def test_max_multiple_below_one_is_rejected(self):
        # (1, 1, 1) fits this budget, so "no tile plan fits" would be false
        with pytest.raises(ValueError, match="max_multiple must be >= 1, got 0"):
            plan_tiling(
                GemmShape(1024, 1024, 1024),
                GemmShape(64, 32, 64),
                Precision.FP32,
                max_multiple=0,
            )


class TestSearchMatchesSeedLoop:
    """The array search against the frozen seed loop it replaced."""

    @pytest.mark.parametrize("double_buffered", [True, False])
    @pytest.mark.parametrize("workload", DNN_WORKLOADS, ids=lambda w: w.workload_id)
    def test_fp32_dse_natives_on_table_iii(self, workload, double_buffered):
        for native in FP32_NATIVES:
            args = (workload.shape, native, Precision.FP32)
            kwargs = {"double_buffered": double_buffered}
            assert outcome(plan_tiling, *args, **kwargs) == outcome(
                seed_plan_tiling, *args, **kwargs
            )

    @given(
        workload=st.builds(
            GemmShape,
            st.integers(1, 5000),
            st.integers(1, 5000),
            st.integers(1, 5000),
        ),
        native=st.sampled_from(ALL_NATIVES),
        precision=st.sampled_from(list(Precision)),
        double_buffered=st.booleans(),
        budget_bytes=st.one_of(st.none(), st.integers(1024, 2**25)),
        max_multiple=st.integers(1, 20),
        objective=st.one_of(st.none(), st.sampled_from(OBJECTIVES)),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_plan_or_same_error(
        self, workload, native, precision, double_buffered, budget_bytes,
        max_multiple, objective,
    ):
        kwargs = {
            "double_buffered": double_buffered,
            "budget_bytes": budget_bytes,
            "max_multiple": max_multiple,
            "objective": objective,
        }
        assert outcome(plan_tiling, workload, native, precision, **kwargs) == outcome(
            seed_plan_tiling, workload, native, precision, **kwargs
        )
