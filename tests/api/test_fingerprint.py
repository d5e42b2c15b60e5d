"""Content-address stability of :func:`repro.api.run_fingerprint`.

The fingerprint is the identity of a run in the content-addressed store
(``repro.service``): two specs that would execute the same simulation
must collide, any semantic difference must separate, and the digest must
be stable across JSON round-trips, construction orders and processes —
otherwise a warm store silently recomputes (or worse, serves the wrong
record).
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.api import (
    SPEC_SCHEMA_VERSION,
    RunSpec,
    ScenarioSpec,
    canonical_json,
    run_fingerprint,
)


def small_spec(**overrides):
    scenario_kwargs = dict(
        field_size=300.0,
        sensor_count=12,
        duration=20.0,
        coverage_resolution=15.0,
        seed=2,
    )
    scenario_kwargs.update(overrides.pop("scenario_overrides", {}))
    scenario = ScenarioSpec(**scenario_kwargs)
    defaults = dict(scenario=scenario, scheme="CPVF")
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestFingerprintStability:
    def test_is_a_hex_digest(self):
        fp = small_spec().fingerprint()
        assert len(fp) == 40
        int(fp, 16)

    def test_key_order_invariance(self):
        a = small_spec(
            scheme_params={"allow_parent_change": False, "gamma": 2.0},
            scenario_overrides={"layout_params": {"seed": 9, "density": 0.1}},
        )
        b = small_spec(
            scheme_params={"gamma": 2.0, "allow_parent_change": False},
            scenario_overrides={"layout_params": {"density": 0.1, "seed": 9}},
        )
        assert a.fingerprint() == b.fingerprint()

    def test_json_round_trip_preserves_fingerprint(self):
        spec = small_spec(
            scheme_params={"allow_parent_change": True},
            trace_every=5,
            tags={"rep": 1},
        )
        reparsed = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert reparsed.fingerprint() == spec.fingerprint()

    def test_module_function_matches_method(self):
        spec = small_spec()
        assert run_fingerprint(spec) == spec.fingerprint()


class TestFingerprintDiscrimination:
    def test_semantic_changes_alter_fingerprint(self):
        base = small_spec()
        variants = [
            small_spec(scheme="FLOOR"),
            small_spec(scheme_params={"allow_parent_change": False}),
            small_spec(trace_every=5),
            small_spec(keep_positions=True),
            small_spec(scenario_overrides={"seed": 3}),
            small_spec(scenario_overrides={"communication_range": 45.0}),
            small_spec(
                scenario_overrides={
                    "events": [
                        {"at_period": 4, "kind": "failure", "params": {"count": 2}}
                    ]
                }
            ),
        ]
        fingerprints = {spec.fingerprint() for spec in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_tags_are_bookkeeping_not_identity(self):
        assert (
            small_spec(tags={"client": "a", "rep": 0}).fingerprint()
            == small_spec().fingerprint()
        )

    def test_schema_version_partitions_fingerprints(self, monkeypatch):
        import repro.api.specs as specs_module

        before = small_spec().fingerprint()
        monkeypatch.setattr(
            specs_module, "SPEC_SCHEMA_VERSION", SPEC_SCHEMA_VERSION + 1
        )
        assert small_spec().fingerprint() != before


class TestCrossProcessStability:
    def test_fingerprint_is_process_independent(self):
        """A store written by one process must be readable by any other.

        The child runs under a different ``PYTHONHASHSEED``, so any
        hidden reliance on dict/set iteration order would show up here.
        """
        spec = small_spec(
            scheme_params={"allow_parent_change": False, "gamma": 2.0},
            tags={"client": "x"},
            scenario_overrides={"layout_params": {"seed": 9}},
        )
        program = textwrap.dedent(
            """
            import json, sys
            from repro.api import RunSpec

            spec = RunSpec.from_dict(json.loads(sys.stdin.read()))
            print(spec.fingerprint())
            """
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src_dir, env.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", program],
            input=json.dumps(spec.to_dict()),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert child.stdout.strip() == spec.fingerprint()


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_rejects_nan(self):
        import pytest

        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})
