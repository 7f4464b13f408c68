"""Differential identity tests across the scan/table/vectorized engines.

Parametrized over partition widths 1–16, with and without fault
schedules, on stub and real partitions.
"""

import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.sim.chaos import FaultPolicy, FaultSchedule, chaos_schedule
from repro.sim.dispatch_batch import native_available
from repro.sim.serving import ServingSimulator, generate_trace
from repro.workloads.gemm import GemmShape

from .harness import (
    SHAPES,
    VECTORIZED,
    StubPartition,
    assert_engines_identical,
    dispatch_rows,
    fast_engines,
    make_partition,
)

WIDTHS = list(range(1, 17))


def _trace(num_requests=120, mean_interarrival=2e-3, seed=11):
    return generate_trace(SHAPES, num_requests, mean_interarrival, seed=seed)


def _schedule_for(width):
    """A mixed down/degraded schedule sized to the stub trace timescale."""
    windows = FaultSchedule.down("acc0", 0.02, 0.06)
    if width >= 2:
        windows = windows + FaultSchedule.degraded("acc1", 0.01, 0.12, factor=2.5)
    if width >= 4:
        windows = windows + FaultSchedule.down("acc3", 0.05, 0.09)
    if width >= 7:
        windows = windows + FaultSchedule.degraded("acc6", 0.0, 0.2, factor=4.0)
    return windows


@pytest.mark.parametrize("width", WIDTHS)
def test_engines_identical_fault_free(width):
    assert_engines_identical(_trace(), make_partition(width))


@pytest.mark.parametrize("width", WIDTHS)
def test_engines_identical_under_faults(width):
    partition = make_partition(width)
    result = assert_engines_identical(
        _trace(),
        partition,
        faults=_schedule_for(width),
        policy=FaultPolicy(max_retries=2),
    )
    report = result["report"]
    assert len(report.completed) + len(report.shed) == 120


@pytest.mark.parametrize("width", [2, 5, 8, 13])
def test_engines_identical_under_chaos(width):
    partition = make_partition(width)
    schedule = chaos_schedule(list(partition.designs), 0.25, seed=3)
    assert_engines_identical(_trace(), partition, faults=schedule)


def test_empty_schedule_matches_no_faults():
    """``FaultSchedule(())`` must take the untouched fault-free paths."""
    trace = _trace()
    partition = make_partition(5)
    for engine in ("scan",) + fast_engines():
        plain = ServingSimulator(partition).run(trace, dispatch=engine)
        empty = ServingSimulator(partition).run(
            trace, dispatch=engine, faults=FaultSchedule(())
        )
        assert dispatch_rows(empty) == dispatch_rows(plain)
        assert empty.fault_summary() == plain.fault_summary()


def test_far_future_window_matches_no_faults():
    """A window past the makespan cannot change any dispatch decision."""
    trace = _trace()
    partition = make_partition(4)
    plain = ServingSimulator(partition).run(trace)
    future = FaultSchedule.down("acc0", plain.makespan + 10.0, plain.makespan + 20.0)
    faulted = ServingSimulator(partition).run(trace, faults=future)
    assert dispatch_rows(faulted) == dispatch_rows(plain)
    assert faulted.shed == []
    assert faulted.kills == 0


def test_real_partition_engines_identical():
    partition = AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    shapes = [SHAPES[0], SHAPES[1]]
    trace = generate_trace(shapes, 80, 5e-4, seed=3)
    schedule = FaultSchedule.down("C5", 0.004, 0.012) + FaultSchedule.degraded(
        "C3", 0.002, 0.02, factor=3.0
    )
    assert_engines_identical(trace, partition)
    assert_engines_identical(trace, partition, faults=schedule)


def test_fault_runs_deterministic():
    trace = _trace()
    partition = make_partition(6)
    schedule = _schedule_for(6)
    first = ServingSimulator(partition).run(trace, faults=schedule)
    second = ServingSimulator(partition).run(trace, faults=schedule)
    assert dispatch_rows(first) == dispatch_rows(second)
    assert first.fault_summary() == second.fault_summary()


@pytest.mark.parametrize("dispatch", ["scan", "table", VECTORIZED, "auto"])
def test_empty_trace_rejected_uniformly(dispatch):
    """Every engine raises the same clear ValueError for an empty trace.

    The contract mirrors ``generate_trace*``'s ``num_requests >= 1``
    validation: an empty trace has no dispatch semantics, so no engine
    gets to pick its own degenerate behaviour.
    """
    import numpy as np

    from repro.sim.streaming import SoATrace

    partition = make_partition(2)
    simulator = ServingSimulator(partition)
    empty_soa = SoATrace(
        shapes=SHAPES,
        shape_ids=np.empty(0, dtype=np.int64),
        arrivals=np.empty(0, dtype=np.float64),
    )
    for trace in ([], empty_soa):
        with pytest.raises(ValueError, match="empty trace"):
            simulator.run(trace, dispatch=dispatch)
        if dispatch != "scan":
            with pytest.raises(ValueError, match="empty trace"):
                simulator.run(trace, dispatch=dispatch, streaming=True)
        with pytest.raises(ValueError, match="empty trace"):
            simulator.run(
                trace, dispatch=dispatch, faults=_schedule_for(2),
                fault_policy=FaultPolicy(max_retries=1),
            )


class _SegmentSpy:
    """Records the service matrix of every segment the fault loop batches."""

    def __init__(self, monkeypatch):
        from repro.sim import serving

        self.matrices = []
        original = serving.dispatch_segment

        def spy(times, class_ids, services, *args):
            self.matrices.append(services.copy())
            return original(times, class_ids, services, *args)

        monkeypatch.setattr(serving, "dispatch_segment", spy)


def test_device_degraded_segments_identical_on_real_partition(monkeypatch):
    """``chaos_schedule(..., device=VCK5000)`` on C5+C3: degraded
    segments go through the kernel, both-down spells requeue, and every
    engine's exact report stays byte-identical to the scan."""
    import numpy as np

    from repro.hw.specs import VCK5000

    partition = AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    shapes = [SHAPES[0], GemmShape(512, 512, 512), GemmShape(2048, 1024, 512)]
    trace = generate_trace(shapes, 3000, 0.9e-3, seed=1)
    schedule = chaos_schedule(
        list(partition.designs), 3000 * 0.9e-3, seed=21, device=VCK5000
    )
    assert {w.kind for w in schedule.windows} == {"down", "degraded"}
    spy = _SegmentSpy(monkeypatch)
    result = assert_engines_identical(trace, partition, faults=schedule)
    report = result["report"]
    assert report.requeues > 0 and report.kills > 0
    if native_available():
        simulator = ServingSimulator(partition)
        simulator.prewarm(shapes)
        healthy = simulator._service_matrix(
            list(partition.designs),
            simulator._class_specs(shapes, set(range(len(shapes))), "vectorized"),
        )
        degraded = [
            matrix
            for matrix in spy.matrices
            if np.isfinite(matrix).all() and not np.array_equal(matrix, healthy)
        ]
        assert degraded, "no device-degraded segment went through the kernel"


def test_dead_class_in_degraded_segment_stays_scalar(monkeypatch):
    """A class whose only feasible accelerator is down while another is
    degraded has no finite lane: that segment is never batched, and its
    requests requeue exactly as the scan requeues them."""
    import numpy as np

    fast, only = SHAPES[0], SHAPES[1]
    partition = StubPartition(
        {
            "acc0": {fast: 0.001, only: None},
            "acc1": {fast: 0.0015, only: 0.002},
        }
    )
    trace = generate_trace([fast, only], 600, 1e-3, seed=5)
    schedule = FaultSchedule.degraded(
        "acc0", 0.1, 0.4, factor=2.0
    ) + FaultSchedule.down("acc1", 0.2, 0.3)
    spy = _SegmentSpy(monkeypatch)
    result = assert_engines_identical(trace, partition, faults=schedule)
    scan = ServingSimulator(partition).run(trace, dispatch="scan", faults=schedule)
    report = result["report"]
    assert report.requeues == scan.requeues > 0
    assert report.fault_timeline == scan.fault_timeline
    for matrix in spy.matrices:
        # every used class keeps a finite lane in every batched segment
        assert np.isfinite(matrix.min(axis=0)).all()
    if native_available():
        assert any(
            matrix[0, 0] == 0.002 for matrix in spy.matrices
        ), "the degraded-only segments were not batched"


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("dispatch", ["scan", "table", VECTORIZED, "auto"])
def test_all_infinite_class_rejected_uniformly(dispatch, faulted):
    """A shape class whose every service time is ``inf`` cannot be served:
    every engine raises the scan's error instead of committing infinite
    finishes, dropping requests, or shedding them."""
    import math

    fine, never = SHAPES[0], SHAPES[2]
    partition = StubPartition(
        {
            "acc0": {fine: 0.001, never: math.inf},
            "acc1": {fine: 0.002, never: math.inf},
        }
    )
    trace = generate_trace([fine, never], 200, 2e-3, seed=4)
    faults = FaultSchedule.down("acc0", 0.05, 0.15) if faulted else None
    with pytest.raises(ValueError, match="no accelerator can serve"):
        ServingSimulator(partition).run(trace, dispatch=dispatch, faults=faults)
