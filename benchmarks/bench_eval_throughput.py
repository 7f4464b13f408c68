"""Evaluation-engine throughput: serial vs. cached vs. parallel vs. vectorized DSE.

Measures evaluations/second over a fixed DSE candidate set in five
modes and appends the result to a ``BENCH_eval.json`` trajectory so the
engine's throughput is tracked across commits:

* ``serial``     — the seed path: every candidate re-derived from
  scratch (``NULL_CACHE``), one thread, tile plans chosen by the frozen
  seed tiling loop (:func:`repro.bench.reference.seed_explore`).
* ``library``    — the same uncached single-thread exploration through
  the library's array tiling search.
* ``cached``     — the memoization layer enabled, one thread.
* ``parallel``   — memoization plus ``parallel_map`` fan-out.
* ``vectorized`` — the batch evaluation kernel: one NumPy coarse pass
  over the whole candidate grid, then a cached exact re-rank of the
  surviving top-K.

The engine's contract is a declarative gate list judged by
:mod:`repro.bench.regression`: cached+parallel exploration is at least
2x the seed serial path on the same candidate set, the vectorized path
is at least 10x, the library's uncached serial path (its tiling search)
is at least 5x, and the top-10 rankings are byte-identical between the
seed serial, library, parallel, and vectorized runs.  The floors are recorded into
every trajectory entry, so later runs gate against the committed
values rather than this file's defaults.

Run directly (``python benchmarks/bench_eval_throughput.py``) or let CI
invoke the ``--smoke`` variant; ``test_eval_throughput_smoke`` keeps it
alive under pytest as well.  ``versal-gemm bench eval`` drives the same
measurement through the repeated-run statistical harness
(docs/benchmarking.md).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable

from repro.bench.reference import seed_explore
from repro.bench.regression import Gate, check_entry, failure_messages
from repro.bench.scenarios import EVAL_WORKLOAD, ranking_bytes
from repro.bench.trajectory import append_trajectory
from repro.core.dse import DesignSpaceExplorer, DseResult
from repro.kernels.precision import Precision
from repro.perf.cache import EvalCache, NullCache
from repro.workloads.gemm import GemmShape

DEFAULT_WORKLOAD = EVAL_WORKLOAD
SPEEDUP_FLOOR = 2.0
VECTORIZED_SPEEDUP_FLOOR = 10.0
TILING_SPEEDUP_FLOOR = 5.0

#: the engine's contract, declaratively (judged by check_entry)
GATES = (
    Gate(metric="rankings_identical", kind="flag",
         label="seed serial, library, parallel, and vectorized top-10 rankings differ"),
    Gate(metric="speedup_cached_parallel", kind="floor", value=SPEEDUP_FLOOR),
    Gate(metric="speedup_vectorized", kind="floor",
         value=VECTORIZED_SPEEDUP_FLOOR),
    Gate(metric="speedup_tiling", kind="floor", value=TILING_SPEEDUP_FLOOR),
)


def _explorer(
    max_aies: int, jobs: int, cache: EvalCache, vectorize: bool = False
) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(
        Precision.FP32,
        max_aies=max_aies,
        explore_ports=True,
        jobs=jobs,
        cache=cache,
        vectorize=vectorize,
    )


def _time_mode(
    explore: Callable[[GemmShape], DseResult], workload: GemmShape, repeats: int
) -> tuple[float, DseResult]:
    start = time.perf_counter()
    result = explore(workload)
    for _ in range(repeats - 1):
        result = explore(workload)
    return time.perf_counter() - start, result


def run_benchmark(
    workload: GemmShape = DEFAULT_WORKLOAD,
    max_aies: int = 128,
    repeats: int = 3,
    jobs: int = 4,
) -> dict:
    num_candidates = len(_explorer(max_aies, 1, NullCache()).candidates())
    evaluations = num_candidates * repeats

    serial_seconds, serial_result = _time_mode(
        partial(seed_explore, _explorer(max_aies, 1, NullCache())), workload, repeats
    )
    library_seconds, library_result = _time_mode(
        _explorer(max_aies, 1, NullCache()).explore, workload, repeats
    )
    cached_seconds, _ = _time_mode(
        _explorer(max_aies, 1, EvalCache()).explore, workload, repeats
    )
    parallel_seconds, parallel_result = _time_mode(
        _explorer(max_aies, jobs, EvalCache()).explore, workload, repeats
    )
    vectorized_seconds, vectorized_result = _time_mode(
        _explorer(max_aies, jobs, EvalCache(), vectorize=True).explore,
        workload,
        repeats,
    )

    modes = {
        "serial": serial_seconds,
        "library": library_seconds,
        "cached": cached_seconds,
        "parallel": parallel_seconds,
        "vectorized": vectorized_seconds,
    }
    return {
        "timestamp": time.time(),
        "workload": str(workload),
        "candidates": num_candidates,
        "repeats": repeats,
        "jobs": jobs,
        "modes": {
            name: {
                "seconds": seconds,
                "evals_per_sec": evaluations / seconds if seconds else 0.0,
            }
            for name, seconds in modes.items()
        },
        "speedup_cached": serial_seconds / cached_seconds,
        "speedup_cached_parallel": serial_seconds / parallel_seconds,
        "speedup_vectorized": serial_seconds / vectorized_seconds,
        "speedup_tiling": serial_seconds / library_seconds,
        "rankings_identical": ranking_bytes(serial_result)
        == ranking_bytes(library_result)
        == ranking_bytes(parallel_result)
        == ranking_bytes(vectorized_result),
        "floors": {
            "speedup_cached_parallel": SPEEDUP_FLOOR,
            "speedup_vectorized": VECTORIZED_SPEEDUP_FLOOR,
            "speedup_tiling": TILING_SPEEDUP_FLOOR,
        },
    }


def check(entry: dict, baseline: dict | None = None) -> list[str]:
    """The engine's contract; empty list means the run is acceptable.

    A ``baseline`` trajectory entry overrides the declared floors with
    its recorded ``floors`` map, so the gate tracks committed history.
    """
    return failure_messages(check_entry(entry, GATES, baseline))


def test_eval_throughput_smoke():
    """Tier-2 smoke: small candidate set, full contract still holds."""
    entry = run_benchmark(max_aies=64, repeats=3, jobs=2)
    assert check(entry) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="1024x1024x1024", help="MxKxN")
    parser.add_argument("--max-aies", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--jobs", "-j", type=int, default=4)
    parser.add_argument("--output", "-o", default="BENCH_eval.json")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small candidate set for CI (max_aies=64)",
    )
    args = parser.parse_args(argv)

    entry = run_benchmark(
        workload=GemmShape.parse(args.workload),
        max_aies=64 if args.smoke else args.max_aies,
        repeats=args.repeats,
        jobs=args.jobs,
    )
    append_trajectory(entry, Path(args.output))

    print(f"workload {entry['workload']}  candidates {entry['candidates']}  "
          f"repeats {entry['repeats']}  jobs {entry['jobs']}")
    for name, mode in entry["modes"].items():
        print(f"{name:>9}: {mode['seconds'] * 1e3:8.1f} ms  "
              f"{mode['evals_per_sec']:8.1f} evals/s")
    print(f"speedup (cached):          {entry['speedup_cached']:.2f}x")
    print(f"speedup (cached+parallel): {entry['speedup_cached_parallel']:.2f}x")
    print(f"speedup (vectorized):      {entry['speedup_vectorized']:.2f}x")
    print(f"speedup (tiling search):   {entry['speedup_tiling']:.2f}x")
    print(f"rankings identical:        {entry['rankings_identical']}")
    print(f"trajectory -> {args.output}")

    failures = check(entry)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
