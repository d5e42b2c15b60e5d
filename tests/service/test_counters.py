"""The shared counter schema: ServiceMetrics, store sidecar, stats --json."""

import json

from repro.network.messages import MessageType
from repro.network.stats import MessageStats
from repro.service import RunStore
from repro.service import ServiceMetrics
from repro.service.store import SERVICE_COUNTERS_FILENAME


class TestServiceMetricsCounters:
    def test_to_counters_uses_shared_schema(self):
        metrics = ServiceMetrics()
        metrics.jobs_submitted = 2
        metrics.cells_submitted = 10
        metrics.store_hits = 4
        metrics.inflight_hits = 1
        metrics.computed = 5
        metrics.failed = 0
        counters = metrics.to_counters()
        assert counters == {
            "service.jobs_submitted": 2,
            "service.cells_submitted": 10,
            "service.store_hits": 4,
            "service.inflight_hits": 1,
            "service.computed": 5,
            "service.failed": 0,
        }

    def test_message_stats_counters(self):
        stats = MessageStats()
        stats.record_transmissions(MessageType.NEIGHBOR_STATE, 2)
        counters = stats.to_counters()
        assert counters["messages.neighbor_state"] == 2
        assert counters["messages.total"] == 2
        # Zero-valued message types stay out of the schema.
        assert all(value > 0 for value in counters.values())


class TestStoreSidecar:
    def test_merge_accumulates_across_submits(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.service_counters() == {}
        store.merge_service_counters({"service.computed": 3})
        merged = store.merge_service_counters(
            {"service.computed": 2, "service.store_hits": 1}
        )
        assert merged == {"service.computed": 5, "service.store_hits": 1}
        assert store.service_counters() == merged

    def test_sidecar_excluded_from_stats(self, tmp_path):
        store = RunStore(tmp_path)
        store.merge_service_counters({"service.computed": 1})
        stats = store.stats()
        assert stats.entries == 0
        assert stats.stale_entries == 0

    def test_sidecar_survives_gc(self, tmp_path):
        store = RunStore(tmp_path)
        store.merge_service_counters({"service.computed": 1})
        (store._version_dir / ".counters.orphan.tmp").write_text("x")
        report = store.gc()
        assert report.removed_files == 1
        assert store.service_counters() == {"service.computed": 1}

    def test_corrupt_sidecar_reads_empty(self, tmp_path):
        store = RunStore(tmp_path)
        store._version_dir.mkdir(parents=True)
        (store._version_dir / SERVICE_COUNTERS_FILENAME).write_text("{broken")
        assert store.service_counters() == {}


class TestStatsCli:
    def test_stats_json_reports_counters(self, tmp_path, capsys):
        from repro.service.cli import main

        store = RunStore(tmp_path)
        store.merge_service_counters({"service.computed": 7})
        assert main(["stats", "--store", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"] == {"service.computed": 7}
        assert payload["entries"] == 0

    def test_stats_text_lists_counters(self, tmp_path, capsys):
        from repro.service.cli import main

        store = RunStore(tmp_path)
        store.merge_service_counters({"service.computed": 7})
        assert main(["stats", "--store", str(tmp_path)]) == 0
        assert "service.computed: 7" in capsys.readouterr().out
