"""Tests for the planner, executor, analyzer, metrics, and benchmark façade."""

import numpy as np
import pytest

from repro.core import Analyzer, LatencyStats, Planner, ServingBenchmark, percentile
from repro.core.metrics import mean_or_zero, ratio
from repro.serving import PlatformKind
from repro.serving.records import RequestOutcome


class TestMetrics:
    def test_latency_stats_from_values(self):
        stats = LatencyStats.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == pytest.approx(2.5)
        assert stats.min == 1.0 and stats.max == 4.0
        assert stats.p50 == pytest.approx(2.5)
        assert set(stats.as_dict()) >= {"mean", "p99", "count"}

    def test_latency_stats_empty(self):
        stats = LatencyStats.from_values([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_latency_stats_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyStats.from_values([-1.0])

    def test_percentile(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
        assert percentile([], 99) == 0.0
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_helpers(self):
        assert mean_or_zero([]) == 0.0
        assert mean_or_zero([2, 4]) == 3.0
        assert ratio(1.0, 0.0) == 0.0
        assert ratio(1.0, 2.0) == 0.5


class TestPlanner:
    def test_plan_serverless_defaults(self, planner):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        assert deployment.config.memory_gb == 2.0
        assert deployment.provider.name == "aws"

    def test_plan_vm_disables_autoscaling(self, planner):
        deployment = planner.plan("gcp", "vgg", "tf1.15", "cpu_server")
        assert deployment.config.autoscaling is False

    def test_plan_managed_enables_autoscaling(self, planner):
        deployment = planner.plan("aws", "vgg", "tf1.15", "managed_ml")
        assert deployment.config.autoscaling is True
        assert deployment.config.initial_instances == 1

    def test_plan_accepts_objects(self, planner):
        from repro.cloud import gcp
        from repro.models import get_model
        from repro.runtimes import get_runtime
        deployment = planner.plan(gcp(), get_model("albert"),
                                  get_runtime("ort1.4"), "serverless")
        assert deployment.label == "gcp-serverless/albert/ort1.4"

    def test_plan_overrides(self, planner):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless",
                                  memory_gb=8.0, batch_size=4)
        assert deployment.config.memory_gb == 8.0
        assert deployment.config.batch_size == 4

    def test_plan_matrix_skips_unsupported(self, planner):
        deployments = planner.plan_matrix(
            providers=["aws"], models=["mobilenet"],
            runtimes=["tf1.15", "ort1.4"],
            platforms=[PlatformKind.SERVERLESS, PlatformKind.MANAGED_ML])
        labels = {d.label for d in deployments}
        assert "aws-managed_ml/mobilenet/ort1.4" not in labels
        assert "aws-managed_ml/mobilenet/tf1.15" in labels
        assert len(deployments) == 3

    def test_plan_paper_systems(self, planner):
        systems = planner.plan_paper_systems("aws", "mobilenet")
        assert set(systems) == {"serverless", "managed_ml", "cpu_server",
                                "gpu_server"}
        # With ORT the managed service is unavailable.
        ort_systems = planner.plan_paper_systems("gcp", "mobilenet", "ort1.4")
        assert "managed_ml" not in ort_systems

    def test_unknown_platform(self, planner):
        with pytest.raises(ValueError):
            planner.plan("aws", "mobilenet", "tf1.15", "quantum")


class TestBenchmarkAndExecutor:
    def test_run_produces_complete_results(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        result = bench.run(deployment, tiny_w40)
        assert result.total_requests == tiny_w40.count
        assert not np.isnan(result.table.completion_time).any()
        assert result.duration_s > 0
        assert result.workload_name == "w-40"

    def test_request_ids_unique(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        result = bench.run(deployment, tiny_w40)
        ids = result.table.request_id.tolist()
        assert len(ids) == len(set(ids))

    def test_clients_are_assigned(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        result = bench.run(deployment, tiny_w40)
        clients = set(result.table.client_id.tolist())
        assert clients == set(range(8))

    @pytest.mark.parametrize("broken", ["ledger", "rows"])
    def test_ledger_outcome_disagreement_raises(self, monkeypatch, bench,
                                                planner, tiny_w40, broken):
        from repro.platforms.serverless import ServerlessPlatform
        from repro.serving.outcome_table import OutcomeTable
        if broken == "ledger":
            finalize = ServerlessPlatform.finalize

            def lossy_finalize(self, *args, **kwargs):
                usage = finalize(self, *args, **kwargs)
                usage.notes["completed"] -= 1
                return usage
            monkeypatch.setattr(ServerlessPlatform, "finalize",
                                lossy_finalize)
        else:
            monkeypatch.setattr(OutcomeTable, "count", property(
                lambda self: int(self.send_time.shape[0]) + 1))
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless")
        with pytest.raises(RuntimeError,
                           match=f"{deployment.label}@w-40"):
            bench.run(deployment, tiny_w40)

    def test_run_many_and_matrix(self, bench, planner, tiny_w40):
        deployments = [
            planner.plan("aws", "mobilenet", "ort1.4", "serverless"),
            planner.plan("aws", "mobilenet", "ort1.4", "gpu_server"),
        ]
        results = bench.run_many(deployments, tiny_w40)
        assert len(results) == 2
        matrix = bench.run_matrix(deployments, [tiny_w40])
        assert set(matrix) == {"w-40"}
        assert len(matrix["w-40"]) == 2

    def test_batch_executor_preserves_request_count(self, bench, planner,
                                                    tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "ort1.4", "serverless",
                                  batch_size=4)
        result = bench.run(deployment, tiny_w40)
        assert result.total_requests == tiny_w40.count
        assert result.success_ratio > 0.99

    def test_as_row_fields(self, bench, planner, tiny_w40):
        deployment = planner.plan("gcp", "albert", "tf1.15", "serverless")
        result = bench.run(deployment, tiny_w40)
        row = result.as_row()
        assert row["provider"] == "gcp"
        assert row["model"] == "albert"
        assert row["requests"] == tiny_w40.count


class TestAnalyzer:
    @pytest.fixture
    def sample_result(self, bench, planner, tiny_w40):
        deployment = planner.plan("aws", "mobilenet", "tf1.15", "serverless")
        return bench.run(deployment, tiny_w40)

    def test_summarize(self, sample_result):
        analyzer = Analyzer()
        summary = analyzer.summarize(sample_result)
        assert 0.0 <= summary["success_ratio"] <= 1.0
        assert summary["p99_latency_s"] >= summary["p50_latency_s"]

    def test_latency_timeline_covers_workload(self, sample_result):
        analyzer = Analyzer()
        timeline = analyzer.latency_timeline(sample_result, bin_seconds=10.0)
        assert timeline
        assert sum(p.requests for p in timeline) == sample_result.total_requests
        assert all(0.0 <= p.success_ratio <= 1.0 for p in timeline)

    def test_latency_timeline_validation(self, sample_result):
        with pytest.raises(ValueError):
            Analyzer().latency_timeline(sample_result, bin_seconds=0)

    def test_instance_timeline(self, sample_result):
        timeline = Analyzer().instance_timeline(sample_result, bin_seconds=10.0)
        assert timeline
        assert max(count for _, count in timeline) >= 1

    def test_breakdown_consistency(self, sample_result):
        breakdown = Analyzer().coldstart_breakdown(sample_result)
        assert breakdown.cold_requests > 0
        assert breakdown.cold_e2e > breakdown.warm_e2e
        assert breakdown.cold_e2e >= breakdown.cold_import
        assert breakdown.warm_predict <= breakdown.warm_e2e
        assert set(breakdown.as_dict()) == {
            "E2E (cs)", "import", "download", "load", "predict (cs)",
            "E2E (wu)", "predict (wu)"}

    def test_comparison_table_sorted(self, bench, planner, tiny_w40,
                                     sample_result):
        gpu = bench.run(
            planner.plan("aws", "mobilenet", "tf1.15", "gpu_server"), tiny_w40)
        rows = Analyzer().comparison_table([gpu, sample_result])
        assert len(rows) == 2
        assert rows[0]["platform"] <= rows[1]["platform"]

    def test_speedup_and_cost_ratio(self, bench, planner, tiny_w40,
                                    sample_result):
        analyzer = Analyzer()
        assert analyzer.speedup(sample_result, sample_result) == pytest.approx(1.0)
        assert analyzer.cost_ratio(sample_result, sample_result) == pytest.approx(1.0)
