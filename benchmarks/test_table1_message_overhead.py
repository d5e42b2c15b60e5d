"""Table 1 benchmark: FLOOR's protocol message overhead.

Shape to reproduce: the total number of protocol messages grows roughly
linearly with the invitation TTL and mildly with the network size, in both
the obstacle-free and the two-obstacle environment.
"""

import pytest

from repro.api import SweepRunner
from repro.experiments.table1 import format_table1, rows_table1, sweep_table1


@pytest.mark.benchmark(group="table1")
def test_table1_message_overhead(benchmark, sweep_scale, run_once):
    sweep = sweep_table1(
        sweep_scale,
        sensor_counts=[120, 240],
        ttl_fractions=[0.1, 0.4],
        environments=["non-obstacle", "two-obstacle"],
        seed=1,
    )
    rows = rows_table1(run_once(benchmark, SweepRunner(jobs=1).run, sweep))
    print()
    print(format_table1(rows))

    def total(environment, count, fraction):
        return next(
            r.total_messages
            for r in rows
            if r.environment == environment
            and r.sensor_count == count
            and r.ttl_fraction == fraction
        )

    # A larger TTL means more invitation transmissions.
    assert total("non-obstacle", 240, 0.4) > total("non-obstacle", 240, 0.1)
    assert total("two-obstacle", 240, 0.4) > total("two-obstacle", 240, 0.1)
    # Every configuration transmits a non-trivial number of messages.
    assert all(r.total_messages > 0 for r in rows)
    assert all(r.messages_per_node > 0 for r in rows)
