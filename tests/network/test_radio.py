"""Tests for the unit-disk radio model, as the world answers it."""

from repro.field import Field
from repro.geometry import Vec2
from repro.network import LINK_EPS
from repro.sim import SimulationConfig, World


def make_world(positions, rc: float = 30.0, size: float = 400.0) -> World:
    config = SimulationConfig(
        sensor_count=len(positions),
        communication_range=rc,
        sensing_range=20.0,
        duration=10.0,
        seed=1,
    )
    return World.create(
        config, Field(size, size), initial_positions=[Vec2(x, y) for x, y in positions]
    )


class TestLinks:
    def test_link_within_range(self):
        assert make_world([(0, 0), (0, 29)]).neighbor_table() == {0: [1], 1: [0]}

    def test_no_link_beyond_range(self):
        assert make_world([(0, 0), (0, 31)]).neighbor_table() == {0: [], 1: []}

    def test_boundary_is_inclusive_within_link_eps(self):
        world = make_world([(0, 0), (30.0 + 0.5 * LINK_EPS, 0)])
        assert world.neighbor_table() == {0: [1], 1: [0]}


class TestNeighborTables:
    def test_neighbor_table_symmetry(self):
        table = make_world([(0, 0), (20, 0), (100, 100)]).neighbor_table()
        assert 1 in table[0] and 0 in table[1]
        assert table[2] == []

    def test_empty_population(self):
        assert make_world([]).neighbor_table() == {}

    def test_single_sensor(self):
        world = make_world([(10, 0)])
        assert world.neighbor_table() == {0: []}
        assert world.sensors_near_base_station() == [0]

    def test_base_station_neighbors(self):
        assert make_world([(10, 0), (50, 0)]).sensors_near_base_station() == [0]


class TestConnectivity:
    def test_connected_chain(self):
        world = make_world([(25.0 * i, 0.0) for i in range(5)])
        assert world.network_is_connected()

    def test_broken_chain(self):
        world = make_world([(20, 0), (45, 0), (300, 0)])
        assert not world.network_is_connected()
        assert world.connected_component_of() == {0, 1}

    def test_isolated_base_station(self):
        world = make_world([(300, 300)])
        assert world.connected_component_of() == set()
        assert not world.network_is_connected()

    def test_empty_network_is_connected(self):
        assert make_world([]).network_is_connected()
