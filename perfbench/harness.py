"""Run one workload: set up, time iterations, check outputs, report.

End-to-end metrics come from untraced iterations.  In a traced run,
iterations alternate between untraced and traced, so the per-layer
numbers and the tracing overhead come from the same run.  Iterations
run back to back from one process (closed loop, one client); each
serving iteration is an open-loop Poisson trace in simulated time.

Shared hosts change speed by tens of percent over minutes.  A fixed
reference computation (:class:`SpeedProbe`) is therefore timed between
iterations, at most once a second, and the end-to-end
times are rescaled to the probe's nominal duration: with ``p`` the
median probe time of the run, a timed interval ``t`` counts as
``t * REFERENCE_SECONDS / p``.
Per-layer times stay raw host seconds.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import tracing
from repro.perf.cache import clear_cache

#: the modules the benchmark imports; a set-up sample imports them in a
#: fresh interpreter, which includes the native kernel compile
IMPORTS = (
    "repro.core.dse",
    "repro.obs.windows",
    "repro.sim.cluster_serving",
    "repro.sim.hwsim",
    "repro.sim.serving",
    "repro.sim.streaming",
)


def fresh_import(root: Path) -> None:
    """Start a fresh interpreter that imports :data:`IMPORTS`, and wait for it."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import " + ", ".join(IMPORTS)
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=170)


#: the speed probe's duration on the host the benchmark was defined on
REFERENCE_SECONDS = 0.04
#: probe timings taken at each probe point, and the least time between points
PROBE_REPEATS = 3
PROBE_INTERVAL = 1.0


class SpeedProbe:
    """A fixed computation, independent of the program, timed on demand.

    An interpreter loop plus a sort and two passes over a million floats.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")
        self._data = np.random.default_rng(0).random(1_000_000)

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        np.cumsum(np.log(np.sort(self._data)))
        return time.perf_counter() - start

    def sample(self, force: bool = False) -> None:
        """Time the probe a few times, unless it ran less than a second ago."""
        now = time.perf_counter()
        if force or now - self._last >= PROBE_INTERVAL:
            self.samples.extend(self() for _ in range(PROBE_REPEATS))
            self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        """Reference seconds per host second over the run so far."""
        return REFERENCE_SECONDS / statistics.median(self.samples)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _build(workload, tracer, traced: bool) -> None:
    clear_cache()
    if traced:
        with tracer.phase_scope("setup"):
            workload.build()
    else:
        workload.build()


def _iterate(workload, tracer, phase: str | None):
    if phase is None:
        return workload.iterate(tracer)
    with tracer.phase_scope(phase, program_spans=workload.program_spans):
        return workload.iterate(tracer)


def run(
    workload,
    *,
    seconds: float,
    trace: bool,
    root: Path,
    out_dir: Path,
    spans_path: Path | None = None,
    setup_samples: int = 3,
    log=print,
) -> dict:
    """Measure ``workload`` for ``seconds`` of timed iterations.

    Returns the result: attempted and failed iteration counts, the
    end-to-end metrics, per-iteration samples and, when ``trace``, the
    per-layer metrics (the spans are written to ``spans_path``).
    """
    probe = SpeedProbe()
    tracer = tracing.Tracer(out_dir)
    probe.sample(force=True)
    builds = [
        _timed(_build, workload, tracer, trace and sample == setup_samples - 1)[1]
        for sample in range(setup_samples)
    ]
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare()

    samples = []  # (host seconds, units, traced)
    counters = []
    attempted = failed = 0
    timed = 0.0
    warmups = workload.warmup_iterations
    while True:
        probe.sample(force=attempted == 0)
        # every iteration starts from a collected heap, so collections
        # left over from the previous one do not land in its time
        gc.collect()
        traced = trace and attempted >= warmups and (attempted - warmups) % 2 == 1
        attempted += 1
        elapsed = 0.0
        try:
            outcome, elapsed = _timed(
                _iterate, workload, tracer, str(attempted) if traced else None
            )
            problems = workload.check(outcome)
        except Exception:  # an iteration that raises counts as failed
            log(f"iteration {attempted} raised:\n{traceback.format_exc()}")
            failed += 1
        else:
            if problems:
                failed += 1
                for problem in problems:
                    log(f"iteration {attempted} check failed: {problem}")
            elif attempted > warmups:
                samples.append((elapsed, outcome.units, traced))
                if traced:
                    counters.append(outcome.counters)
            del outcome
        if attempted <= warmups:
            continue
        timed += elapsed
        if timed >= seconds and attempted - warmups >= (2 if trace else 1):
            break
        if failed and not samples and attempted >= 3:
            break
    probe.sample(force=True)

    # forked workers count the parent's copy-on-write pages as their own,
    # so the peak is the larger of this process and its largest child
    rss = _rss_mib(resource.RUSAGE_SELF)
    if workload.children_rss:
        rss = max(rss, _rss_mib(resource.RUSAGE_CHILDREN))
    try:
        model_err = workload.model_error_pct()
    except Exception:
        log(f"model error check raised:\n{traceback.format_exc()}")
        model_err = float("nan")
    if not model_err <= 5.0:
        log(f"model_err_max_pct {model_err} exceeds the paper's 5% bound")
        failed += 1
    imports = [_timed(fresh_import, root)[1] for _ in builds]
    probe.sample(force=True)
    factor = probe.factor
    setups = [build + imported for build, imported in zip(builds, imports)]

    def rate(rows):
        values = [units / elapsed for elapsed, units, _ in rows]
        return statistics.median(values) if values else float("nan")

    untraced = [row for row in samples if not row[2]]
    end_to_end = {
        "setup_s": statistics.median(setups) * factor,
        "throughput_per_s": rate(untraced) / factor,
        "model_err_max_pct": model_err,
        "peak_rss_mb": rss,
    }
    result = {
        "workload": workload.name,
        "unit_of_work": workload.unit,
        "rate_name": workload.rate_name,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": end_to_end,
        "error_rate": failed / attempted,
        "raw_host_throughput_per_s": rate(untraced),
        "probe": {"factor": factor, "seconds": probe.samples},
        "samples": [
            {"seconds": elapsed, "units": units, "traced": traced}
            for elapsed, units, traced in samples
        ],
        "setup_samples": {"build_seconds": builds, "import_seconds": imports},
    }
    if trace:
        traced_rows = [row for row in samples if row[2]]
        overhead = 1.0 - rate(traced_rows) / rate(untraced) if traced_rows and untraced else 0.0
        iteration, setup = tracing.layer_metrics(tracer.spans, tracer.pid, counters, overhead)
        result["per_layer"] = {name: iteration[name] + setup[name] for name in iteration}
        result["per_layer_iteration"] = iteration
        result["per_layer_setup"] = setup
        if spans_path is not None:
            tracer.write(spans_path)
    return result
