"""OPT records report the connectivity of the layout they describe.

``OptStripPattern.positions_for_count`` truncates the strip pattern to
the sensor count, and a truncated pattern can leave strips out of radio
range of each other.  On the 500 m field at rc 60 and rs 40 the 24- and
70-sensor layouts fall apart into three components; 120 sensors connect.
"""

import pytest

from repro.api import RunSpec, ScenarioSpec, execute_run
from repro.geometry import Vec2
from repro.metrics import connected_components


def opt_record(scheme, sensor_count):
    scenario = ScenarioSpec(
        field_size=500.0,
        sensor_count=sensor_count,
        communication_range=60.0,
        sensing_range=40.0,
        duration=10.0,
    )
    return execute_run(
        RunSpec(scenario=scenario, scheme=scheme, keep_positions=True)
    )


@pytest.mark.parametrize("scheme", ["OPT", "OPT-Hungarian"])
@pytest.mark.parametrize(
    "sensor_count, components", [(24, 3), (70, 3), (120, 1)]
)
def test_connected_flag_matches_the_layout(scheme, sensor_count, components):
    record = opt_record(scheme, sensor_count)
    layout = [Vec2(x, y) for x, y in record.final_positions]
    assert len(connected_components(layout, 60.0)) == components
    assert record.connected is (components == 1)
