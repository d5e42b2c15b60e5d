"""RunSpec/SweepSpec integration of the serializable NetworkSpec."""

import json

from repro.api import NetworkSpec, RunSpec, ScenarioSpec, SweepSpec


def small_spec(**overrides):
    scenario = ScenarioSpec(
        field_size=300.0,
        sensor_count=12,
        duration=20.0,
        coverage_resolution=15.0,
        seed=2,
    )
    defaults = dict(scenario=scenario, scheme="CPVF")
    defaults.update(overrides)
    return RunSpec(**defaults)


DEGRADED = NetworkSpec(model="unreliable", loss=0.1, staleness=5)


class TestSerialization:
    def test_round_trip_with_network(self):
        spec = small_spec(network=DEGRADED)
        reparsed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reparsed == spec
        assert reparsed.network == DEGRADED

    def test_round_trip_without_network(self):
        spec = small_spec()
        payload = spec.to_dict()
        assert payload["network"] is None
        assert RunSpec.from_dict(payload) == spec

    def test_legacy_payload_without_network_key_loads(self):
        payload = small_spec().to_dict()
        del payload["network"]
        assert RunSpec.from_dict(payload) == small_spec()


class TestFingerprint:
    def test_unset_and_structural_specs_share_the_default_fingerprint(self):
        base = small_spec().fingerprint()
        assert small_spec(network=NetworkSpec()).fingerprint() == base
        assert (
            small_spec(network=NetworkSpec(model="unreliable")).fingerprint()
            == base
        )

    def test_default_fingerprint_is_pinned(self, monkeypatch):
        """The structural-mode identity: the schema-1 digest predates the
        network backend, and attaching no (or a structural) spec must
        never move it — a warm run store written before the backend
        existed keeps serving these runs.  Only a schema-version bump
        moves it; the current version's digest is pinned too."""
        import repro.api.specs as specs_module

        assert (
            small_spec().fingerprint()
            == "b5e3753e797125a348b2ecd3e49f8685b554838d"
        )
        monkeypatch.setattr(specs_module, "SPEC_SCHEMA_VERSION", 1)
        assert (
            small_spec().fingerprint()
            == "9acc53ff17501fb579d69ee069be0354f72b9b8e"
        )

    def test_degraded_spec_moves_the_fingerprint(self):
        base = small_spec().fingerprint()
        degraded = small_spec(network=DEGRADED).fingerprint()
        assert degraded != base
        assert (
            small_spec(
                network=NetworkSpec(model="unreliable", loss=0.2, staleness=5)
            ).fingerprint()
            != degraded
        )

    def test_network_schema_version_moves_only_degraded_fingerprints(
        self, monkeypatch
    ):
        """A lossy record drawn under another network schema is another
        cell; structural specs carry no network section, so the pinned
        default digest stays put."""
        import repro.api.specs as specs_module

        degraded = small_spec(network=DEGRADED).fingerprint()
        monkeypatch.setattr(
            specs_module,
            "NETWORK_SCHEMA_VERSION",
            specs_module.NETWORK_SCHEMA_VERSION - 1,
        )
        assert small_spec(network=DEGRADED).fingerprint() != degraded
        assert (
            small_spec().fingerprint()
            == small_spec(network=NetworkSpec()).fingerprint()
            == "b5e3753e797125a348b2ecd3e49f8685b554838d"
        )

    def test_degraded_fingerprint_round_trips(self):
        spec = small_spec(network=DEGRADED)
        reparsed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reparsed.fingerprint() == spec.fingerprint()


class TestSweepGrid:
    def test_grid_threads_network_into_every_run(self):
        scenario = ScenarioSpec(
            field_size=300.0, sensor_count=12, duration=20.0, seed=2
        )
        sweep = SweepSpec.grid(
            "degraded",
            scenario,
            schemes=("CPVF", "FLOOR"),
            axes={"communication_range": [40.0, 60.0]},
            network=DEGRADED,
        )
        assert len(sweep.runs) == 4
        assert all(run.network == DEGRADED for run in sweep.runs)

    def test_grid_default_leaves_network_unset(self):
        scenario = ScenarioSpec(
            field_size=300.0, sensor_count=12, duration=20.0, seed=2
        )
        sweep = SweepSpec.grid("plain", scenario, schemes=("CPVF",), axes={})
        assert all(run.network is None for run in sweep.runs)
