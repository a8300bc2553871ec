from __future__ import annotations

from fractions import Fraction

import pytest

from plcroute.metrics import routing_overhead


def test_dlc_overhead_64_bytes():
    report = routing_overhead("dlc1000", 64)
    assert report.routing_bits_per_packet == 24
    assert report.packet_bits == 512
    assert Fraction(report.routing_bits_per_packet, report.packet_bits) == \
        Fraction(3, 64)
    assert round(report.overhead_ratio * 100, 1) == 4.7


def test_sfn_overhead_64_bytes():
    report = routing_overhead("sfn", 64)
    assert report.routing_bits_per_packet == 8
    assert Fraction(report.routing_bits_per_packet, report.packet_bits) == \
        Fraction(1, 64)
    assert round(report.overhead_ratio * 100, 1) == 1.6


def test_overhead_halves_with_doubled_packet():
    assert routing_overhead("sfn", 128).overhead_ratio == \
        pytest.approx(0.0078125, abs=1e-15)


@pytest.mark.parametrize("packet_bytes", [16, 64, 128, 1500])
def test_sfn_overhead_always_below_dlc(packet_bytes):
    assert routing_overhead("sfn", packet_bytes).overhead_ratio < \
        routing_overhead("dlc1000", packet_bytes).overhead_ratio


def test_overhead_validation():
    with pytest.raises(ValueError):
        routing_overhead("dlc1000", 0)
    with pytest.raises(ValueError):
        routing_overhead("token-ring", 64)
    for packet_bytes in (1.5, True):
        with pytest.raises(ValueError, match="packet_bytes"):
            routing_overhead("dlc1000", packet_bytes)


def test_per_response_signaling_in_overhead_report():
    assert routing_overhead("dlc1000", 64).signaling_bits_per_poll_response == 100
    assert routing_overhead("sfn", 64).signaling_bits_per_poll_response == 0


@pytest.mark.parametrize("protocol,packet_bytes,bits", [
    ("dlc1000", 1, 24), ("dlc1000", 2, 24)])
def test_packet_smaller_than_its_routing_fields_is_rejected(
        protocol, packet_bytes, bits):
    # a 24-bit DLC1000 header does not fit an 8- or 16-bit packet
    with pytest.raises(ValueError, match=f"packet_bytes {packet_bytes} "
                                         f"cannot hold the {bits} routing"):
        routing_overhead(protocol, packet_bytes)


@pytest.mark.parametrize("protocol,packet_bytes", [("dlc1000", 3), ("sfn", 1)])
def test_routing_fields_may_fill_the_whole_packet(protocol, packet_bytes):
    assert routing_overhead(protocol, packet_bytes).overhead_ratio == 1.0
