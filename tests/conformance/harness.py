"""Differential conformance harness for the serving dispatch engines.

The serving engine's core claim is that the scan, table, and vectorized
dispatch paths — and the exact and streaming reports — are *the same
scheduler* expressed three ways.  This module makes that claim a
first-class, reusable assertion instead of an ad-hoc benchmark check:

* :func:`make_partition` builds stub partitions of any width (1–16+),
  with infeasible pairs sprinkled in;
* :func:`assert_engines_identical` runs every engine on the same seeded
  trace (with or without a fault schedule) and diffs the per-request
  assignments byte for byte, plus the exact-vs-streaming summaries;
* :data:`VECTORIZED` is the ``vectorized`` engine as a pytest parameter
  that skips, with a reason, where the native kernel is unavailable.

Import these from any test that adds a new dispatch path or fault
semantic — if the engines can disagree, this is the function that must
catch it.
"""

from __future__ import annotations

import pytest

from repro.sim.dispatch_batch import native_available
from repro.sim.serving import ServingSimulator
from repro.workloads.gemm import GemmShape

NO_KERNEL = "native k-wide dispatch kernel unavailable"

#: the vectorized engine as a test parameter, skipped without the kernel
VECTORIZED = pytest.param(
    "vectorized",
    marks=pytest.mark.skipif(not native_available(), reason=NO_KERNEL),
)

#: the default shape mix used by the parametrized conformance tests
SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 2048, 512),
    GemmShape(256, 256, 256),
)


class StubPartition:
    """Hand-authored service times; ``ValueError`` marks infeasible pairs."""

    def __init__(self, services):
        # services: {name: {shape: seconds | None}}
        self.designs = {name: None for name in services}
        self._services = services

    def estimate_on(self, accelerator, shape):
        service = self._services[accelerator].get(shape)
        if service is None:
            raise ValueError(f"{accelerator} cannot serve {shape}")
        return service


def make_partition(width: int, shapes=SHAPES) -> StubPartition:
    """A ``width``-accelerator stub partition with varied services.

    Service times are deterministic functions of the accelerator index
    (so different widths produce genuinely different dispatch dynamics),
    and every third accelerator can't serve the second shape — except
    on one- and two-wide partitions, where each shape keeps at least
    one feasible accelerator.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    services = {}
    for index in range(width):
        per_shape = {
            shape: 0.001 * (1 + ((index + 1) * (position + 3)) % 7)
            for position, shape in enumerate(shapes)
        }
        if width > 2 and index % 3 == 0 and len(shapes) > 1:
            per_shape[shapes[1]] = None
        services[f"acc{index}"] = per_shape
    return StubPartition(services)


def dispatch_rows(report) -> list[tuple]:
    """The byte-comparable per-request assignment list of a report.

    ``repr`` of the float timestamps makes the comparison exact to the
    last bit — two engines that differ by one ULP anywhere fail.
    """
    return [
        (
            c.request.request_id,
            c.accelerator,
            repr(c.start),
            repr(c.finish),
            c.retries,
        )
        for c in report.completed
    ]


def shed_rows(report) -> list[tuple]:
    return [
        (s.request.request_id, s.retries, s.reason, repr(s.time))
        for s in report.shed
    ]


def fast_engines() -> tuple[str, ...]:
    """The non-scan engines to diff: ``vectorized`` needs the kernel;
    without it ``auto`` (which then runs ``table``) takes its place."""
    return ("table", "vectorized") if native_available() else ("table", "auto")


def assert_engines_identical(
    trace,
    partition,
    faults=None,
    policy=None,
    quantile_error: float = 0.01,
) -> dict:
    """Assert all dispatch engines and exact/streaming reports agree.

    Runs the scan and each of :func:`fast_engines` on a **fresh**
    simulator (no shared scheduler state), diffs the per-request
    assignment and shed lists byte for byte, then checks the streaming
    report against the exact one: makespan, count, and loads exactly;
    the mean to float tolerance; percentiles within twice the sketch's
    documented bound.  Returns the exact table-engine report's rows for
    further assertions.
    """
    engines = fast_engines()
    exact = {}
    for engine in ("scan",) + engines:
        simulator = ServingSimulator(partition)
        exact[engine] = simulator.run(
            trace, dispatch=engine, faults=faults, fault_policy=policy
        )
    base = exact["table"]
    base_rows = dispatch_rows(base)
    base_shed = shed_rows(base)
    for engine in ("scan",) + engines[1:]:
        assert dispatch_rows(exact[engine]) == base_rows, (
            f"{engine} dispatch differs from table"
        )
        assert shed_rows(exact[engine]) == base_shed, (
            f"{engine} shed accounting differs from table"
        )
        assert exact[engine].fault_summary() == base.fault_summary(), (
            f"{engine} fault summary differs from table"
        )

    streaming = {}
    for engine in engines:
        simulator = ServingSimulator(partition)
        streaming[engine] = simulator.run(
            trace,
            dispatch=engine,
            streaming=True,
            quantile_error=quantile_error,
            faults=faults,
            fault_policy=policy,
        )
    for engine in engines[1:]:
        assert streaming["table"].as_dict() == streaming[engine].as_dict(), (
            f"streaming summaries differ between table and {engine}"
        )

    stream = streaming["table"]
    assert stream.count == len(base.completed)
    assert stream.makespan == base.makespan
    assert stream.accelerator_load() == base.accelerator_load()
    assert stream.fault_summary() == base.fault_summary()
    if base.completed:
        exact_mean = base.mean_latency()
        assert abs(stream.mean_latency() - exact_mean) <= 1e-12 * max(
            1.0, abs(exact_mean)
        )
        bound = 2 * quantile_error
        for percentile in (50, 95, 99):
            exact_value = base.latency_percentile(percentile)
            sketched = stream.latency_percentile(percentile)
            assert abs(sketched - exact_value) <= bound * exact_value, (
                f"p{percentile} outside the sketch bound"
            )
    return {"rows": base_rows, "shed": base_shed, "report": base}
