"""The repo's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 10 --trace 0

Prints the end-to-end metrics (``--trace 0``) or the per-layer table
and metrics (``--trace 1``), writes the full result with its provenance
under ``.perfbench_out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when any
output check fails and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: string hashing is randomised per process, and the speed of the
#: Python-heavy workloads moves by up to ~20% with the hash seed, so
#: every run uses this one
HASH_SEED = "0"


def _parse(argv: list[str], workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the native kernel compiles into a temporary directory at import;
    # keep it (and everything else the run writes) inside the checkout
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, provenance, tracing
    from perfbench.workloads import FACTORIES

    args = _parse(argv, FACTORIES)
    # every metric's unit comes from BENCHMARK.json only
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    prov = provenance.collect(ROOT, sys.argv)
    print("provenance  " + json.dumps(prov, sort_keys=True))
    workload = FACTORIES[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run(
        workload,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        out_dir=OUT,
        spans_path=OUT / f"spans-{tag}.jsonl" if args.trace else None,
        log=lambda line: print(line, file=sys.stderr),
    )
    result["provenance"] = prov
    result["seed"] = args.seed

    print(f"workload    {args.workload} (seed {args.seed}, "
          f"{len(result['samples'])} timed iterations, unit: {result['unit_of_work']})")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        note = f"  ({result['rate_name']})" if name == "throughput_per_s" else ""
        print(f"  {name:<20} {result['end_to_end'][name]:>16.6g} {metric['unit']}{note}")
    print(f"  {'(raw host rate)':<20} {result['raw_host_throughput_per_s']:>16.6g} 1/s "
          "(not rescaled by the speed probe)")
    print(f"  {'error_rate':<20} {result['error_rate']:>16.6g} fraction "
          f"({result['failed']} of {result['attempted']} iterations failed)")
    if args.trace:
        print(tracing.layer_table(
            result["per_layer_iteration"], result["per_layer_setup"], args.workload, units
        ))
        values = result["per_layer"]
    else:
        values = result["end_to_end"]
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
