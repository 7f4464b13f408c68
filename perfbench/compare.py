"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``result-*-trace0.json`` files that
``perfbench/run.py`` writes under ``.perfbench_out/``.  For every
workload and end-to-end metric it prints both medians, the change, and
whether the change stays within the metric's bound in
``BENCHMARK.json``.  It refuses to compare, exit code 2, when the two
sets ran with different CPU counts or with the native kernel on in one
and off in the other.  Exit code 1 means some metric worsened by more
than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.provenance import IncomparableResults, require_comparable  # noqa: E402


def load(directory: Path) -> list[dict]:
    results = []
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    if not results:
        raise SystemExit(f"compare: no result-*-trace0.json files in {directory}")
    return results


def compare(before: list[dict], after: list[dict], bounds: dict[str, dict]) -> tuple[list[str], bool]:
    """Table lines and whether any metric worsened past its bound.

    Raises :class:`IncomparableResults` when any pair of results differs
    in CPU count or native-kernel availability.
    """
    reference = before[0]["provenance"]
    for result in before + after:
        require_comparable(reference, result["provenance"])
    lines = [f"{'workload':<18} {'metric':<20} {'before':>12} {'after':>12} {'change':>8}  verdict"]
    regressed = False
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after})
    for workload in workloads:
        for metric, spec in bounds.items():
            old = statistics.median(
                r["end_to_end"][metric] for r in before if r["workload"] == workload
            )
            new = statistics.median(
                r["end_to_end"][metric] for r in after if r["workload"] == workload
            )
            change = (new - old) / old
            worse = -change if spec["better"] == "higher" else change
            verdict = "ok"
            if worse > spec["bound"]:
                verdict = f"WORSE than the {spec['bound']:.0%} bound"
                regressed = True
            lines.append(
                f"{workload:<18} {metric:<20} {old:12.6g} {new:12.6g} {change:+8.2%}  {verdict}"
            )
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    try:
        lines, regressed = compare(load(Path(argv[0])), load(Path(argv[1])), bounds)
    except IncomparableResults as error:
        print(f"REFUSED: {error}; rerun both sets on one machine set-up", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
