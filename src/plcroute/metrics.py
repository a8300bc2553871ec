"""Routing-overhead comparison metrics.

DLC1000 carries two 12-bit repeater addresses in every packet header and
each polled slave reports its five preferred repeaters with a channel
quality estimate; SFN carries a 4-bit downlink and a 4-bit uplink level
field and sends back a bare confirmation.
"""
from __future__ import annotations

from dataclasses import dataclass

from .channel import _check_integer

DLC_ROUTING_BITS = 24  # two repeater addresses, 12 bits each
SFN_ROUTING_BITS = 8  # 4-bit downlink level + 4-bit uplink level
PREFERRED_REPEATERS_REPORTED = 5
ADDRESS_BITS = 12
# The bit width of the reported channel-quality estimate is not
# standardized; 8 bits is this package's assumption.
QUALITY_BITS = 8


@dataclass(frozen=True)
class OverheadReport:
    protocol: str
    routing_bits_per_packet: int
    packet_bits: int
    overhead_ratio: float
    signaling_bits_per_poll_response: int


def routing_overhead(protocol: str, packet_bytes: int = 64) -> OverheadReport:
    """Share of a data packet spent on routing fields, and the routing
    payload bits of one poll response.  A packet smaller than its routing
    fields is a ValueError."""
    if protocol not in ("dlc1000", "sfn"):
        raise ValueError(f"unknown protocol {protocol!r}")
    _check_integer("packet_bytes", packet_bytes, low=1)
    packet_bits = 8 * packet_bytes
    if protocol == "dlc1000":
        routing_bits = DLC_ROUTING_BITS
        signaling = PREFERRED_REPEATERS_REPORTED * (ADDRESS_BITS + QUALITY_BITS)
    else:
        routing_bits = SFN_ROUTING_BITS
        signaling = 0
    if packet_bits < routing_bits:
        raise ValueError(
            f"packet_bytes {packet_bytes} cannot hold the {routing_bits} "
            f"routing bits of {protocol}; it needs at least "
            f"{-(-routing_bits // 8)}")
    return OverheadReport(
        protocol=protocol,
        routing_bits_per_packet=routing_bits,
        packet_bits=packet_bits,
        overhead_ratio=routing_bits / packet_bits,
        signaling_bits_per_poll_response=signaling,
    )

