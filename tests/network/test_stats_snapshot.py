"""Tests for MessageStats snapshot/diff window accounting."""

import pytest

from repro.network import MessageStats, MessageType


def test_snapshot_is_a_frozen_copy():
    stats = MessageStats()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 3)
    snap = stats.snapshot()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 2)
    assert snap.total() == 3
    assert stats.total() == 5
    assert snap.counts is not stats.counts


def test_diff_reports_only_the_window():
    stats = MessageStats()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 4)
    snap = stats.snapshot()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 1)
    stats.record_transmissions(MessageType.TREE_REPAIR, 7)
    delta = stats.diff(snap)
    assert delta.counts[MessageType.CONNECTIVITY_FLOOD] == 1
    assert delta.counts[MessageType.TREE_REPAIR] == 7
    assert delta.total() == 8


def test_diff_drops_zero_entries():
    stats = MessageStats()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 4)
    snap = stats.snapshot()
    delta = stats.diff(snap)
    assert delta.total() == 0
    assert MessageType.CONNECTIVITY_FLOOD not in delta.counts


def test_diff_against_later_snapshot_raises():
    stats = MessageStats()
    stats.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 2)
    later = stats.snapshot()
    later.record_transmissions(MessageType.CONNECTIVITY_FLOOD, 5)
    with pytest.raises(ValueError):
        stats.diff(later)


def test_windowed_accounting_composes():
    stats = MessageStats()
    windows = []
    snap = stats.snapshot()
    for burst in (3, 0, 11):
        stats.record_transmissions(MessageType.TREE_REPAIR, burst)
        windows.append(stats.diff(snap).total())
        snap = stats.snapshot()
    assert windows == [3, 0, 11]
    assert stats.total() == 14
