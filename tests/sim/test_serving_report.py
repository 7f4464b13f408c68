"""The array-backed exact report: array readers vs the request objects.

Every engine fills one structure of arrays; the per-request
``CompletedRequest``/``ShedRequest`` objects are built only when a caller
reads ``completed``/``shed``.  These tests pin both halves: the array
readers equal, bit for bit, the same quantities recomputed from the
lazily built objects, and serving plus reading never builds an object.
"""

import math

import pytest

from repro.sim import serving
from repro.sim.chaos import FaultPolicy, FaultSchedule
from repro.sim.serving import CompletedRequest, ServingReport, ServingSimulator
from repro.sim.streaming import SoATrace, generate_trace_soa

from tests.conformance.harness import SHAPES, VECTORIZED, make_partition

ENGINES = ["scan", "table", VECTORIZED, "auto"]
REQUESTS = 400
MEAN_INTERARRIVAL = 1.5e-3


def _schedule():
    # acc1 and acc2 are the only lanes for SHAPES[1]: both down at once
    # requeues, and max_retries=0 sheds every killed request
    return (
        FaultSchedule.down("acc0", 0.05, 0.2)
        + FaultSchedule.degraded("acc1", 0.02, 0.12, factor=2.0)
        + FaultSchedule.down("acc1", 0.18, 0.22)
        + FaultSchedule.down("acc2", 0.15, 0.25)
    )


def _serve(dispatch, faulted, trace=None):
    if trace is None:
        trace = generate_trace_soa(SHAPES, REQUESTS, MEAN_INTERARRIVAL, seed=5)
    simulator = ServingSimulator(make_partition(4))
    if not faulted:
        return simulator.run(trace, dispatch=dispatch)
    return simulator.run(
        trace,
        dispatch=dispatch,
        faults=_schedule(),
        fault_policy=FaultPolicy(max_retries=0),
    )


def _readers(report):
    """Every array reader of an exact report, as one comparable dict."""
    return {
        "count": report.count,
        "makespan": report.makespan,
        "mean": report.mean_latency(),
        "percentiles": report.latency_percentiles([1, 50, 90, 99, 100]),
        "load": list(report.accelerator_load().items()),
        "retries": report.total_retries,
        "shed_count": report.shed_count,
        "summary": report.fault_summary(),
        "throughput": report.throughput_rps,
    }


def _from_objects(report):
    """The same quantities, recomputed from the per-request objects."""
    completed = report.completed
    shed = report.shed
    latencies = sorted(c.latency for c in completed)
    count = len(latencies)
    makespan = max((c.finish for c in completed), default=0.0)
    load: dict[str, int] = {}
    for c in completed:
        load[c.accelerator] = load.get(c.accelerator, 0) + 1
    retries = sum(c.retries for c in completed) + sum(s.retries for s in shed)
    availability = {
        name: 1.0 if makespan <= 0 else min(1.0, max(0.0, 1.0 - down / makespan))
        for name, down in report.downtime.items()
    }
    offered = len(completed) + len(shed)
    return {
        "count": count,
        "makespan": makespan,
        "mean": sum(c.latency for c in completed) / count,
        "percentiles": [
            latencies[min(count - 1, math.ceil(p / 100 * count) - 1)]
            for p in (1, 50, 90, 99, 100)
        ],
        "load": list(load.items()),
        "retries": retries,
        "shed_count": len(shed),
        "summary": {
            "completed": len(completed),
            "shed": len(shed),
            "kills": report.kills,
            "retries": retries,
            "requeues": report.requeues,
            "fault_events": len(report.fault_events),
            "request_availability": len(completed) / offered if offered else 1.0,
            "availability": availability,
        },
        "throughput": len(completed) / makespan if makespan else 0.0,
    }


def _bits(value):
    """``value`` with every float replaced by its repr (exact bits)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("dispatch", ENGINES)
def test_array_readers_match_objects_bit_for_bit(dispatch, faulted):
    report = _serve(dispatch, faulted)
    if faulted:
        assert report.kills and report.shed_count and report.requeues
    assert _bits(_readers(report)) == _bits(_from_objects(report))


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
@pytest.mark.parametrize("dispatch", ENGINES)
def test_serving_and_reading_build_no_objects(dispatch, faulted, monkeypatch):
    built = []

    class CountingCompleted(CompletedRequest):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    def no_materialize(self):
        raise AssertionError("SoATrace.materialize called")

    trace = generate_trace_soa(SHAPES, REQUESTS, MEAN_INTERARRIVAL, seed=5)
    monkeypatch.setattr(serving, "CompletedRequest", CountingCompleted)
    # the clean scan is the seed loop over Request objects by design
    if faulted or dispatch != "scan":
        monkeypatch.setattr(SoATrace, "materialize", no_materialize)
    report = _serve(dispatch, faulted, trace)
    _readers(report)
    assert built == []
    assert "completed" not in vars(report) and "shed" not in vars(report)
    assert len(report.completed) == report.count
    assert len(built) == report.count


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_object_constructor_converts_to_the_same_arrays(faulted):
    served = _serve("table", faulted)
    rebuilt = ServingReport(
        completed=served.completed,
        shed=served.shed,
        fault_events=served.fault_events,
        downtime=served.downtime,
        kills=served.kills,
        requeues=served.requeues,
        fault_timeline=served.fault_timeline,
    )
    assert _bits(_readers(rebuilt)) == _bits(_readers(served))
    assert rebuilt.completed is not served.completed
    assert rebuilt.completed == served.completed
    assert rebuilt.shed == served.shed
    assert rebuilt.fault_timeline == served.fault_timeline


def test_rows_are_built_in_blocks(monkeypatch):
    whole = _serve("table", True)
    monkeypatch.setattr(serving, "_ROW_BLOCK", 7)
    blocked = _serve("table", True)
    assert blocked.completed == whole.completed
    assert blocked.shed == whole.shed


def test_request_list_trace_keeps_its_request_objects():
    trace = serving.generate_trace(SHAPES, 60, MEAN_INTERARRIVAL, seed=2)
    report = ServingSimulator(make_partition(3)).run(
        trace, dispatch="table", faults=_schedule()
    )
    by_id = {request.request_id: request for request in trace}
    for row in report.completed:
        assert row.request is by_id[row.request.request_id]
    for row in report.shed:
        assert row.request is by_id[row.request.request_id]


def test_latency_arrays_match_rows():
    report = _serve("table", True)
    assert report.latencies().tolist() == [c.latency for c in report.completed]
    assert report.queueing_delays().tolist() == [
        c.queueing_delay for c in report.completed
    ]
