"""Network substrate: radio model, messages, conditions, tree, routing costs."""

from .conditions import (
    NETWORK_SCHEMA_VERSION,
    NetworkModel,
    NetworkSpec,
    PERFECT_NETWORK,
    PerfectNetwork,
    UnreliableNetwork,
)
from .messages import Message, MessageType, NET_COUNTER_KEYS
from .radio import LINK_EPS
from .routing import RoutingCostModel
from .stats import MessageStats
from .tree import BASE_STATION_ID, ConnectivityTree

__all__ = [
    "Message",
    "MessageType",
    "NET_COUNTER_KEYS",
    "NETWORK_SCHEMA_VERSION",
    "NetworkModel",
    "NetworkSpec",
    "PERFECT_NETWORK",
    "PerfectNetwork",
    "UnreliableNetwork",
    "LINK_EPS",
    "RoutingCostModel",
    "MessageStats",
    "BASE_STATION_ID",
    "ConnectivityTree",
]
