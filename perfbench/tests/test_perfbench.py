"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest perfbench/tests
"""

import copy
import json
from pathlib import Path

import pytest

from perfbench import compare, harness, provenance, tracing
from perfbench.workloads import FACTORIES, DseWorkload, ServeWorkload
from repro.sim import cluster_serving
from repro.sim.streaming import StreamingServingReport

ROOT = Path(__file__).resolve().parents[2]

#: the per-layer metrics the traced run must report, by name
EXPECTED_LAYERS = {
    "streaming.generate_trace.self_s",
    "dispatch_batch.kernel.self_s",
    "streaming.fold.self_s",
    "streaming.fold.calls",
    "serving.fault_loop.s",
    "serving.run.self_s",
    "streaming.materialize.self_s",
    "serving.report_read.self_s",
    "windows.monitor.self_s",
    "windows.monitor.calls",
    "chaos.kills",
    "chaos.retries",
    "chaos.requeues",
    "chaos.shed",
    "chaos.useful_ratio",
    "serving.prewarm.self_s",
    "serving.prewarm.pairs",
    "cluster.pool_start_s",
    "cluster.serve_s",
    "cluster.shard_busy_s",
    "cluster.merge.self_s",
    "cluster.wait_s",
    "dse.candidates.self_s",
    "dse.candidates.count",
    "dse.explore.self_s",
    "tiling.plan_tiling.self_s",
    "tiling.plan_tiling.calls",
    "analytical_model.estimate.self_s",
    "analytical_model.estimate.calls",
    "vectorized.batch_estimate.self_s",
    "cache.hits",
    "cache.misses",
    "cache.hit_ratio",
    "iteration.wall_s",
    "iteration.unattributed_s",
    "tracing.overhead_ratio",
}

END_TO_END = {"setup_s", "throughput_per_s", "model_err_max_pct", "peak_rss_mb"}


def toy(name: str, seed: int = 3):
    """The named workload at a size that runs in about a second."""
    return {
        "serve-stream": lambda: ServeWorkload(name, seed, 20_000, prefix=2_000),
        "serve-chaos": lambda: ServeWorkload(name, seed, 5_000, chaos=True, prefix=1_000),
        "serve-sharded": lambda: ServeWorkload(name, seed, 20_000, shards=2, prefix=2_000),
        "dse-table3-cold": lambda: DseWorkload(name, seed, ("L3",), warm=False, max_aies=32),
        "dse-table3-warm": lambda: DseWorkload(name, seed, ("L3",), warm=True, max_aies=32),
    }[name]()


def measure(workload, out_dir: Path, trace: bool = False) -> dict:
    return harness.run(
        workload,
        seconds=0,
        trace=trace,
        root=ROOT,
        out_dir=out_dir,
        setup_samples=1,
        log=lambda line: None,
    )


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_every_workload_passes_its_checks_at_toy_size(name, tmp_path):
    result = measure(toy(name), tmp_path)
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["end_to_end"]) == END_TO_END
    assert all(value > 0 for value in result["end_to_end"].values())
    assert result["end_to_end"]["model_err_max_pct"] <= 5.0


def test_wrong_dispatch_counts_as_an_error(tmp_path):
    """A perturbed service table disagrees with the unperturbed scan oracle."""
    workload = toy("serve-stream")
    build = workload.build

    def perturbed_build():
        build()
        workload.simulator = workload.simulator.perturbed(lambda acc, shape: 1.01)

    workload.build = perturbed_build
    result = measure(workload, tmp_path)
    assert result["failed"] >= 1
    assert result["error_rate"] > 0


def zero_carry(monkeypatch):
    """Every shard starts its arrival clock at 0."""
    monkeypatch.setattr(
        cluster_serving,
        "shard_arrival_offsets",
        lambda num_requests, mean_interarrival, seed, bounds: [0.0] * len(bounds),
    )


def lossy_merge(monkeypatch):
    """The cluster's merge keeps only the first shard's latency sketch."""
    merge = StreamingServingReport.merge
    serve = cluster_serving.ShardedServingCluster.serve

    def dropping(self, other):
        latency = copy.deepcopy(self._latency)
        merge(self, other)
        self._latency = latency
        return self

    def tampered_serve(cluster, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(StreamingServingReport, "merge", dropping)
            return serve(cluster, *args, **kwargs)

    monkeypatch.setattr(cluster_serving.ShardedServingCluster, "serve", tampered_serve)


@pytest.mark.parametrize("tamper", [zero_carry, lossy_merge])
def test_wrong_sharded_serve_counts_as_an_error(tamper, tmp_path, monkeypatch):
    """A fault only the sharded path has keeps the counts but fails the check."""
    tamper(monkeypatch)
    result = measure(toy("serve-sharded"), tmp_path)
    assert result["failed"] >= 1
    assert result["error_rate"] > 0


def test_wrong_dse_winner_counts_as_an_error(tmp_path):
    """A ranking that differs between iterations of one seed fails the check."""
    workload = toy("dse-table3-warm")
    iterate = workload.iterate

    def tampered(tracer):
        outcome = iterate(tracer)
        if workload._reference is not None:
            outcome.output[1][0].reverse()
        return outcome

    workload.iterate = tampered
    result = harness.run(
        workload, seconds=0.5, trace=False, root=ROOT, out_dir=tmp_path,
        setup_samples=1, log=lambda line: None,
    )
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"] - 1


@pytest.mark.parametrize("name", ["serve-chaos", "serve-sharded", "dse-table3-cold"])
def test_traced_run_reports_every_layer(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = harness.run(
        toy(name), seconds=0, trace=True, root=ROOT, out_dir=tmp_path,
        spans_path=spans, setup_samples=1, log=lambda line: None,
    )
    assert result["failed"] == 0
    assert set(result["per_layer"]) == EXPECTED_LAYERS
    iteration = result["per_layer_iteration"]
    assert 0 <= iteration["iteration.unattributed_s"] < iteration["iteration.wall_s"]
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    phases = {row["phase"] for row in rows}
    assert "setup" in phases and len(phases) >= 2
    if name == "serve-chaos":
        assert iteration["serving.fault_loop.s"] > 0
        assert iteration["windows.monitor.calls"] > 0
    if name == "serve-sharded":
        # spans recorded inside the forked shard workers reach the parent
        assert iteration["streaming.generate_trace.self_s"] > 0
        assert iteration["cluster.serve_s"] > 0
    if name == "dse-table3-cold":
        assert iteration["tiling.plan_tiling.calls"] > 0
        assert iteration["cache.misses"] > 0


def test_benchmark_json_lists_the_layers_and_workloads():
    spec = benchmark_spec()
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYERS)
    assert {m["name"] for m in spec["per_layer"]} == EXPECTED_LAYERS
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(FACTORIES)


def test_comparison_refuses_different_cpu_counts_or_native_kernel():
    base = {"cpu_count": 2, "native_available": True, "git_sha": "a"}
    provenance.require_comparable(base, dict(base, git_sha="b"))
    for change in ({"cpu_count": 1}, {"native_available": False}):
        with pytest.raises(provenance.IncomparableResults):
            provenance.require_comparable(base, dict(base, **change))


def test_compare_flags_a_regression_past_its_bound():
    bounds = {m["name"]: m for m in benchmark_spec()["end_to_end"]}
    prov = {"cpu_count": 2, "native_available": True}

    def result(throughput):
        values = {name: 1.0 for name in END_TO_END}
        values["throughput_per_s"] = throughput
        return {"workload": "serve-stream", "provenance": prov, "end_to_end": values}

    _, regressed = compare.compare([result(100.0)], [result(99.0)], bounds)
    assert not regressed
    _, regressed = compare.compare([result(100.0)], [result(50.0)], bounds)
    assert regressed
