"""Smoke tests for the experiment harness (runs at SMOKE_SCALE)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments

from repro.experiments import (
    SMOKE_SCALE,
    SweepRunner,
    format_fig3,
    format_fig9,
    format_fig10,
    format_fig11,
    format_fig12,
    format_fig13,
    format_table1,
    rows_fig3,
    rows_fig9,
    rows_fig10,
    rows_fig11,
    rows_fig12,
    rows_table1,
    summary_fig13,
    sweep_fig3,
    sweep_fig9,
    sweep_fig10,
    sweep_fig11,
    sweep_fig12,
    sweep_fig13,
    sweep_table1,
)
from repro.core import CPVFScheme
from repro.experiments.common import make_scenario
from repro.sim import SimulationEngine
from repro.experiments.runner import EXPERIMENTS, run_experiment_records


class TestCommonHelpers:
    def test_make_scenario_uses_scale(self):
        config = make_scenario(
            SMOKE_SCALE, communication_range=50.0, sensing_range=30.0
        ).build_config()
        assert config.sensor_count == SMOKE_SCALE.sensor_count
        assert config.duration == SMOKE_SCALE.duration
        assert config.communication_range == 50.0

    def test_scenario_world_clusters_sensors(self):
        world = make_scenario(SMOKE_SCALE).build_world()
        for sensor in world.sensors:
            assert sensor.position.x <= SMOKE_SCALE.field_size / 2.0 + 1e-9
            assert sensor.position.y <= SMOKE_SCALE.field_size / 2.0 + 1e-9

    def test_engine_run_returns_result_with_world(self):
        world = make_scenario(SMOKE_SCALE, seed=3).build_world()
        result = SimulationEngine(world, CPVFScheme()).run()
        assert result.world is world
        assert 0.0 <= result.final_coverage <= 1.0

    def test_scaled_count(self):
        assert SMOKE_SCALE.scaled_count(240) == SMOKE_SCALE.sensor_count


class TestFig3AndFig8:
    def test_fig3_rows(self):
        rows = rows_fig3(SweepRunner(jobs=1).run(sweep_fig3(SMOKE_SCALE, seed=2)))
        assert [r.scenario for r in rows] == ["a", "b", "c"]
        assert all(0.0 <= r.coverage <= 1.0 for r in rows)
        report = format_fig3(rows)
        assert "Figure 3" in report

    def test_fig8_rows_use_floor_paper_values(self):
        records, report = run_experiment_records("fig8", SMOKE_SCALE, seed=2)
        rows = rows_fig3(records)
        assert rows[0].paper_coverage == pytest.approx(0.788)
        assert all(0.0 <= r.coverage <= 1.0 for r in rows)
        assert {r.scheme for r in records} == {"FLOOR"}
        assert report.startswith("Figure 8 (FLOOR)")


class TestSweeps:
    def test_fig9_structure(self):
        rows = rows_fig9(
            SweepRunner(jobs=1).run(
                sweep_fig9(
                    SMOKE_SCALE,
                    sensor_counts=[120],
                    range_pairs=[(60.0, 40.0)],
                    seed=2,
                )
            )
        )
        schemes = {r.scheme for r in rows}
        assert schemes == {"CPVF", "FLOOR", "OPT"}
        assert "Figure 9" in format_fig9(rows)

    def test_fig10_structure(self):
        rows = rows_fig10(
            SweepRunner(jobs=1).run(
                sweep_fig10(SMOKE_SCALE, ratios=[1.0, 3.0], vd_rounds=3, seed=2)
            )
        )
        schemes = {r.scheme for r in rows}
        assert schemes == {"FLOOR", "VOR", "Minimax"}
        # The connectivity flag should improve (or stay) as rc/rs grows.
        vor_small = next(r for r in rows if r.scheme == "VOR" and r.ratio == 1.0)
        vor_large = next(r for r in rows if r.scheme == "VOR" and r.ratio == 3.0)
        assert vor_large.coverage >= 0.0 and vor_small.coverage >= 0.0
        assert "Figure 10" in format_fig10(rows)

    def test_fig11_contains_all_six_schemes(self):
        rows = rows_fig11(
            SweepRunner(jobs=1).run(sweep_fig11(SMOKE_SCALE, vd_rounds=2, seed=2))
        )
        names = {r.scheme for r in rows}
        assert names == {
            "CPVF",
            "FLOOR",
            "VOR",
            "Minimax",
            "OPT-Hungarian",
            "FLOOR-Hungarian",
        }
        assert all(r.average_moving_distance >= 0.0 for r in rows)
        assert "Figure 11" in format_fig11(rows)

    def test_fig12_sweep(self):
        rows = rows_fig12(
            SweepRunner(jobs=1).run(
                sweep_fig12(
                    SMOKE_SCALE, deltas=[None, 2.0], modes=["one-step"], seed=2
                )
            )
        )
        assert len(rows) == 2
        damped = next(r for r in rows if r.delta == 2.0)
        plain = next(r for r in rows if r.delta is None)
        assert damped.average_moving_distance <= plain.average_moving_distance + 1e-6
        assert "Figure 12" in format_fig12(rows)

    def test_fig13_summary(self):
        summary = summary_fig13(
            SweepRunner(jobs=1).run(sweep_fig13(SMOKE_SCALE, repetitions=1, seed=2))
        )
        assert len(summary.runs) == 2
        assert summary.mean_coverage("FLOOR") >= 0.0
        assert summary.coverage_cdf("CPVF").values
        assert "Figure 13" in format_fig13(summary, cdf_points=3)

    def test_table1_rows(self):
        rows = rows_table1(
            SweepRunner(jobs=1).run(
                sweep_table1(
                    SMOKE_SCALE,
                    sensor_counts=[120],
                    ttl_fractions=[0.1, 0.3],
                    environments=["non-obstacle"],
                    seed=2,
                )
            )
        )
        assert len(rows) == 2
        low = next(r for r in rows if r.ttl_fraction == 0.1)
        high = next(r for r in rows if r.ttl_fraction == 0.3)
        assert high.total_messages >= low.total_messages
        assert "Table 1" in format_table1(rows)


class TestRunner:
    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig3",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "table1",
            "gallery",
            "lifecycle",
            "degradation",
        }

    def test_registry_references_each_module_directly(self):
        for name, experiment in EXPERIMENTS.items():
            assert experiment.sweep.__name__ == f"sweep_{name}"
            assert experiment.sweep.__module__ == f"repro.experiments.{name}"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment_records("fig99", SMOKE_SCALE)

    def test_package_does_not_re_export_the_runner(self):
        # ``python -m repro.experiments.runner`` would otherwise find the
        # module already imported by its package and warn.
        assert not hasattr(repro.experiments, "run_experiment_records")
        assert not hasattr(repro.experiments, "EXPERIMENTS")

    def test_runner_module_lists_without_runtime_warning(self):
        src = Path(__file__).resolve().parents[2] / "src"
        out = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.experiments.runner",
                "--list",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert sorted(out.stdout.split()) == sorted(EXPERIMENTS)
