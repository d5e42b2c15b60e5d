"""Tests for delivery-condition (net.*) accounting in MessageStats."""

import pytest

from repro.network import MessageStats, MessageType, NET_COUNTER_KEYS


def degraded_stats():
    stats = MessageStats()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 4)
    stats.record_transmissions(MessageType.INVITATION, 9)
    stats.record_net("dropped", 3)
    stats.record_net("retries", 2)
    stats.record_net("timeouts")
    return stats


def test_record_net_validates_key_and_count():
    stats = MessageStats()
    with pytest.raises(ValueError):
        stats.record_net("packets_eaten")
    with pytest.raises(ValueError):
        stats.record_net("dropped", -1)
    stats.record_net("dropped", 0)
    assert stats.net_counts == {}


def test_to_counters_appends_net_keys_after_total():
    counters = degraded_stats().to_counters()
    names = list(counters)
    assert names.index("messages.total") < names.index("net.dropped")
    assert counters["net.dropped"] == 3
    assert counters["net.retries"] == 2
    assert counters["net.timeouts"] == 1
    assert "net.delayed" not in counters  # zero counters stay omitted


def test_perfect_counters_unchanged():
    stats = MessageStats()
    stats.record_transmissions(MessageType.INVITATION, 5)
    assert list(stats.to_counters()) == ["messages.invitation", "messages.total"]


def test_net_counter_keys_are_the_schema():
    assert NET_COUNTER_KEYS == (
        "dropped",
        "delayed",
        "retries",
        "timeouts",
        "stale_reads",
    )
