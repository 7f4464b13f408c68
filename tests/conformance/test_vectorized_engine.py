"""Conformance for the vectorized (native k-wide kernel) engine.

The parametrized width tests in ``test_dispatch_identity`` already run
the vectorized engine through :func:`harness.assert_engines_identical`;
this module covers the engine's own seams: chunk-boundary stress, what
happens without the kernel (``auto`` runs ``table``, an explicit
``vectorized`` raises), NaN service times, and the native build's
failure reporting.
"""

import logging
import os
import shutil
import subprocess
import sys

import pytest

from repro.sim import _native, dispatch_batch
from repro.sim.chaos import FaultSchedule
from repro.sim.serving import ServingSimulator, generate_trace

from .harness import (
    NO_KERNEL,
    SHAPES,
    VECTORIZED,
    StubPartition,
    dispatch_rows,
    make_partition,
)

needs_kernel = pytest.mark.skipif(
    not dispatch_batch.native_available(), reason=NO_KERNEL
)


def _trace(num_requests=300, mean_interarrival=1e-3, seed=19):
    return generate_trace(SHAPES, num_requests, mean_interarrival, seed=seed)


@pytest.fixture
def no_native(monkeypatch):
    """Run this process as if the kernel had not compiled."""
    monkeypatch.setattr(dispatch_batch, "_native_dispatch", None)


@needs_kernel
@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("chunk_size", [7, 64, 65536])
def test_small_chunk_identity(width, chunk_size):
    """Flush boundaries must not leak into results at any chunk size."""
    partition = make_partition(width)
    trace = _trace()
    base = ServingSimulator(partition).run(
        trace, dispatch="table", chunk_size=chunk_size
    )
    vec = ServingSimulator(partition).run(
        trace, dispatch="vectorized", chunk_size=chunk_size
    )
    assert dispatch_rows(vec) == dispatch_rows(base)
    stream_base = ServingSimulator(partition).run(
        trace, dispatch="table", streaming=True, chunk_size=chunk_size
    )
    stream_vec = ServingSimulator(partition).run(
        trace, dispatch="vectorized", streaming=True, chunk_size=chunk_size
    )
    assert stream_vec.as_dict() == stream_base.as_dict()


def test_repro_no_native_env_forces_fallback():
    """``REPRO_NO_NATIVE=1`` disables the kernel at import: ``auto``
    runs the table engine and an explicit ``vectorized`` names the
    variable in its error."""
    env = dict(os.environ, REPRO_NO_NATIVE="1")
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    code = (
        "from repro.sim._native import NATIVE_AVAILABLE, dispatch_exact\n"
        "assert dispatch_exact is None and NATIVE_AVAILABLE is False\n"
        "from repro.sim.dispatch_batch import native_available\n"
        "assert native_available() is False\n"
        "from repro.sim.serving import ServingSimulator, generate_trace\n"
        "from repro.workloads.gemm import GemmShape\n"
        "class Stub:\n"
        "    designs = {'a': None, 'b': None}\n"
        "    def estimate_on(self, name, shape):\n"
        "        return 0.002 if name == 'a' else 0.003\n"
        "trace = generate_trace([GemmShape(64, 64, 64)], 200, 1e-3, seed=1)\n"
        "sim = ServingSimulator(Stub())\n"
        "rows = lambda r: [(c.accelerator, c.start, c.finish) for c in r.completed]\n"
        "assert rows(sim.run(trace)) == rows(sim.run(trace, dispatch='table'))\n"
        "try:\n"
        "    sim.run(trace, dispatch='vectorized')\n"
        "except ValueError as exc:\n"
        "    assert 'REPRO_NO_NATIVE' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('explicit vectorized ran without the kernel')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_native_available_tracks_monkeypatch(no_native):
    """``native_available()`` reads the module state dynamically, so the
    auto engine selector sees the same view the tests force."""
    assert dispatch_batch.native_available() is False


@needs_kernel
def test_nan_service_raises_for_explicit_vectorized():
    """A NaN service entry must fail loudly, naming the culprit."""
    partition = StubPartition(
        {
            "good": {shape: 0.002 for shape in SHAPES},
            "broken": {
                SHAPES[0]: float("nan"),
                SHAPES[1]: 0.003,
                SHAPES[2]: 0.004,
            },
        }
    )
    trace = _trace(num_requests=50)
    with pytest.raises(ValueError, match="'broken'"):
        ServingSimulator(partition).run(trace, dispatch="vectorized")
    with pytest.raises(ValueError, match="NaN"):
        ServingSimulator(partition).run(
            trace, dispatch="vectorized", streaming=True
        )
    with pytest.raises(ValueError, match="vectorized"):
        ServingSimulator(partition).run(
            trace,
            dispatch="vectorized",
            faults=FaultSchedule.down("good", 0.01, 0.02),
        )


@needs_kernel
@pytest.mark.parametrize("width", [3, 8])
def test_explicit_vectorized_legal_at_any_width(width):
    """``dispatch="vectorized"`` no longer silently falls back on wide
    fleets: it runs the k-wide engine and matches the table engine."""
    partition = make_partition(width)
    trace = _trace()
    base = ServingSimulator(partition).run(trace, dispatch="table")
    vec = ServingSimulator(partition).run(trace, dispatch="vectorized")
    assert dispatch_rows(vec) == dispatch_rows(base)


@pytest.mark.parametrize("dispatch", ["auto", "table", VECTORIZED])
@pytest.mark.parametrize("faulted", [False, True])
def test_nan_service_raises_on_every_fast_engine(dispatch, faulted):
    """One NaN service on the first lane of a 3-wide partition: the
    table loop would let it win every comparison while the scan never
    picks it, so every fast engine must refuse the run instead."""
    broken = {shape: 0.002 for shape in SHAPES}
    broken[SHAPES[1]] = float("nan")
    partition = StubPartition(
        {
            "broken": broken,
            "b": {shape: 0.003 for shape in SHAPES},
            "c": {shape: 0.004 for shape in SHAPES},
        }
    )
    trace = generate_trace(SHAPES, 2000, 1e-3, seed=3)
    faults = FaultSchedule.down("c", 0.5, 0.6) if faulted else None
    with pytest.raises(ValueError, match=f"dispatch='{dispatch}'.*'broken'.*NaN"):
        ServingSimulator(partition).run(trace, dispatch=dispatch, faults=faults)


@pytest.mark.parametrize("faulted", [False, True])
def test_explicit_vectorized_without_kernel_raises(no_native, faulted):
    """No silent fallback: ``vectorized`` without the kernel is an
    error, while ``auto`` runs the table engine."""
    partition = make_partition(3)
    trace = _trace()
    faults = FaultSchedule.down("acc0", 0.02, 0.06) if faulted else None
    with pytest.raises(ValueError, match="native k-wide dispatch kernel"):
        ServingSimulator(partition).run(
            trace, dispatch="vectorized", faults=faults
        )
    auto = ServingSimulator(partition).run(trace, faults=faults)
    table = ServingSimulator(partition).run(trace, dispatch="table", faults=faults)
    assert dispatch_rows(auto) == dispatch_rows(table)


_COMPILERS = [name for name in ("cc", "gcc", "clang") if shutil.which(name)]


@pytest.mark.skipif(not _COMPILERS, reason="no C compiler on this host")
def test_native_build_reports_compile_errors(monkeypatch, caplog):
    """A source that does not compile yields no kernel and a logged
    reason carrying the compiler's own error text."""
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(_native, "_SOURCE", "this is not C;\n")
    with caplog.at_level(logging.WARNING, logger="repro.sim.native"):
        kernel, reason = _native._build()
    assert kernel is None
    assert reason.startswith("compile failed: ")
    assert "error" in reason
    assert reason in caplog.text
    assert "uses the table engine" in caplog.text


@pytest.mark.skipif(not _COMPILERS, reason="no C compiler on this host")
def test_native_build_reports_self_check_mismatch(monkeypatch, caplog):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(_native, "_reference_dispatch", lambda *args: [])
    with caplog.at_level(logging.WARNING, logger="repro.sim.native"):
        kernel, reason = _native._build()
    assert kernel is None
    assert reason.startswith("self-check mismatch")
    assert reason in caplog.text


def test_native_build_without_compiler(monkeypatch, caplog):
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with caplog.at_level(logging.WARNING, logger="repro.sim.native"):
        kernel, reason = _native._build()
    assert kernel is None
    assert reason == "no C compiler found (tried cc, gcc, clang)"
    assert reason in caplog.text
