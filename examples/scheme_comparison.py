#!/usr/bin/env python3
"""Compare all deployment schemes: CPVF, FLOOR, VOR, Minimax and OPT.

The comparison mirrors the structure of the paper's Section 6 evaluation on
a reduced scale: every scheme starts from the same clustered distribution,
and we report coverage, connectivity and average moving distance, plus the
Hungarian-matching lower bounds the paper uses as yardsticks (Fig 11).

Run with::

    python examples/scheme_comparison.py [--rc 60] [--rs 40] [--sensors 70]
"""

from __future__ import annotations

import argparse
import random

from repro import (
    CPVFScheme,
    FloorScheme,
    MinimaxScheme,
    OptStripPattern,
    SimulationConfig,
    SimulationEngine,
    VorScheme,
    World,
    minimum_distance_matching,
    obstacle_free_field,
    positions_are_connected,
)
from repro.field import clustered_initial_positions
from repro.viz import render_coverage_bar

FIELD_SIZE = 500.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rc", type=float, default=60.0, help="communication range (m)")
    parser.add_argument("--rs", type=float, default=40.0, help="sensing range (m)")
    parser.add_argument("--sensors", type=int, default=70, help="number of sensors")
    parser.add_argument("--seed", type=int, default=5, help="random seed")
    args = parser.parse_args()

    field = obstacle_free_field(FIELD_SIZE)
    rng = random.Random(args.seed)
    initial = clustered_initial_positions(
        args.sensors, rng, cluster_size=FIELD_SIZE / 2.0, field=field
    )
    initial_tuples = [p.as_tuple() for p in initial]
    rows = []

    # --- every simulated scheme on one engine loop ----------------------
    # VOR and Minimax disperse the cluster first (the minimum-cost
    # explosion), then spread their ten Voronoi rounds over the horizon.
    config = SimulationConfig(
        sensor_count=args.sensors,
        communication_range=args.rc,
        sensing_range=args.rs,
        duration=300.0,
        coverage_resolution=10.0,
        seed=args.seed,
    )
    for scheme in (CPVFScheme(), FloorScheme(), VorScheme(), MinimaxScheme()):
        world = World.create(config, field, initial_positions=list(initial))
        result = SimulationEngine(world, scheme).run()
        if isinstance(scheme, (VorScheme, MinimaxScheme)):
            # The VD baselines build no tree: report whether the sensors
            # form one network among themselves, as the figures do.
            connected = positions_are_connected(world.positions(), args.rc)
        else:
            connected = result.connected
        rows.append(
            (scheme.name, result.final_coverage, connected, result.average_moving_distance)
        )

    # --- centralised OPT pattern plus its Hungarian distance bound ----
    pattern = OptStripPattern(field, args.rc, args.rs)
    opt_positions = pattern.positions_for_count(args.sensors)
    _, opt_distance = minimum_distance_matching(
        initial_tuples, [p.as_tuple() for p in opt_positions]
    )
    rows.append(
        (
            "OPT",
            field.coverage_fraction(opt_positions, args.rs, 10.0),
            positions_are_connected(opt_positions, args.rc),
            opt_distance / args.sensors,
        )
    )

    # --- report --------------------------------------------------------
    print(
        f"field {FIELD_SIZE:.0f} m, N={args.sensors}, rc={args.rc:.0f} m, rs={args.rs:.0f} m\n"
    )
    print(f"{'scheme':<10s} {'coverage':>9s} {'connected':>10s} {'avg move (m)':>13s}")
    for name, coverage, connected, distance in rows:
        print(f"{name:<10s} {coverage:>8.1%} {str(connected):>10s} {distance:>13.1f}")
    print()
    for name, coverage, _, _ in rows:
        print(render_coverage_bar(name, coverage))


if __name__ == "__main__":
    main()
