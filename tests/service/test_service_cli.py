"""``python -m repro.service`` submit / status / stats / gc."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import RunSpec, ScenarioSpec, SweepSpec, execute_run
from repro.service import RunStore
from repro.service.cli import main


def tiny_sweep():
    scenario = ScenarioSpec(
        field_size=250.0,
        sensor_count=10,
        duration=12.0,
        coverage_resolution=25.0,
        seed=3,
    )
    return SweepSpec.grid(
        "cli-sweep",
        scenario,
        schemes=("CPVF",),
        axes={"communication_range": [40.0, 55.0]},
    )


@pytest.fixture()
def sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(tiny_sweep().to_dict()))
    return path


class TestSubmit:
    def test_sharded_submit_matches_plain_runs(self, tmp_path, sweep_file):
        out_file = tmp_path / "records.json"
        assert main(["submit", str(sweep_file), "--jobs", "2", "--quiet",
                     "--out", str(out_file)]) == 0
        from repro.api import RunRecord

        payload = json.loads(out_file.read_text())
        records = [RunRecord.from_dict(r) for r in payload["records"]]
        assert records == [execute_run(spec) for spec in tiny_sweep().runs]

    def test_submit_computes_streams_and_persists(
        self, tmp_path, sweep_file, capsys
    ):
        store_dir = tmp_path / "store"
        out_file = tmp_path / "records.json"
        exit_code = main(
            [
                "submit", str(sweep_file),
                "--store", str(store_dir),
                "--out", str(out_file),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "computed" in output and "cli-sweep: 2 records" in output
        assert output.count("cell ") == 2  # one progress line per cell
        assert len(RunStore(store_dir)) == 2

        payload = json.loads(out_file.read_text())
        assert payload["metrics"]["computed"] == 2
        from repro.api import RunRecord

        records = [RunRecord.from_dict(r) for r in payload["records"]]
        assert records == [execute_run(spec) for spec in tiny_sweep().runs]

    def test_warm_resubmit_serves_everything_from_store(
        self, tmp_path, sweep_file, capsys
    ):
        store_dir = tmp_path / "store"
        assert main(["submit", str(sweep_file), "--store", str(store_dir),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["submit", str(sweep_file), "--store", str(store_dir),
                     "--quiet"]) == 0
        assert "2 store hits, 0 coalesced, 0 computed" in capsys.readouterr().out

    def test_refresh_recomputes_despite_warm_store(
        self, tmp_path, sweep_file, capsys
    ):
        store_dir = tmp_path / "store"
        main(["submit", str(sweep_file), "--store", str(store_dir), "--quiet"])
        capsys.readouterr()
        main(["submit", str(sweep_file), "--store", str(store_dir),
              "--refresh", "--quiet"])
        assert "0 store hits" in capsys.readouterr().out

    def test_sweep_and_experiment_are_mutually_exclusive(self, sweep_file):
        with pytest.raises(SystemExit):
            main(["submit", str(sweep_file), "--experiment", "fig9"])
        with pytest.raises(SystemExit):
            main(["submit"])


class TestStatus:
    def test_status_counts_missing_cells(self, tmp_path, sweep_file, capsys):
        store_dir = tmp_path / "store"
        # Cold store: everything missing, exit 1 signals "resume would work".
        assert main(["status", str(sweep_file), "--store", str(store_dir)]) == 1
        assert "0/2 cells cached" in capsys.readouterr().out

        # Persist one cell by hand: a partial (killed) sweep.
        store = RunStore(store_dir)
        store.put(execute_run(tiny_sweep().runs[0]))
        assert main(["status", str(sweep_file), "--store", str(store_dir),
                     "--verbose"]) == 1
        output = capsys.readouterr().out
        assert "1/2 cells cached" in output
        assert "cached" in output and "missing" in output

    def test_status_exits_zero_when_complete(self, tmp_path, sweep_file, capsys):
        store_dir = tmp_path / "store"
        main(["submit", str(sweep_file), "--store", str(store_dir), "--quiet"])
        capsys.readouterr()
        assert main(["status", str(sweep_file), "--store", str(store_dir)]) == 0
        assert "resume would compute 0" in capsys.readouterr().out


class TestMaintenance:
    def test_stats_json(self, tmp_path, sweep_file, capsys):
        store_dir = tmp_path / "store"
        main(["submit", str(sweep_file), "--store", str(store_dir), "--quiet"])
        capsys.readouterr()
        assert main(["stats", "--store", str(store_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2
        assert stats["stale_entries"] == 0

    def test_failing_submit_still_records_its_counters(self, tmp_path, capsys):
        good = tiny_sweep().runs[0]
        bad = RunSpec(good.scenario, "VOR", scheme_params={"bogus": 1})
        sweep_path = tmp_path / "mixed.json"
        sweep_path.write_text(
            json.dumps(SweepSpec("mixed", (good, bad)).to_dict())
        )
        store_dir = tmp_path / "store"
        src = Path(__file__).resolve().parents[2] / "src"
        submit = subprocess.run(
            [sys.executable, "-m", "repro.service", "submit",
             str(sweep_path), "--store", str(store_dir), "--quiet"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert submit.returncode != 0
        assert "unknown VOR scheme parameters" in submit.stderr
        assert main(["stats", "--store", str(store_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["counters"]["service.computed"] == 1
        assert stats["counters"]["service.failed"] == 1

    def test_gc_dry_run_then_real(self, tmp_path, sweep_file, capsys):
        store_dir = tmp_path / "store"
        main(["submit", str(sweep_file), "--store", str(store_dir), "--quiet"])
        store = RunStore(store_dir)
        RunStore(store_dir, schema_version=0).put(
            store.load(next(iter(store.fingerprints())))
        )
        capsys.readouterr()
        assert main(["gc", "--store", str(store_dir), "--dry-run"]) == 0
        assert "would remove 1 files" in capsys.readouterr().out
        assert (store_dir / "v0").exists()
        assert main(["gc", "--store", str(store_dir)]) == 0
        assert "removed 1 files" in capsys.readouterr().out
        assert not (store_dir / "v0").exists()
        assert len(store) == 2

    def test_store_is_required(self):
        with pytest.raises(SystemExit):
            main(["gc"])
