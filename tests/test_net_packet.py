"""Unit tests for packets and segmentation arithmetic."""

import pytest

from repro.net.packet import (
    CONTROL_BYTES,
    MTU_BYTES,
    Packet,
    PacketKind,
    mtus_for_bytes,
)


def test_mtus_for_bytes_rounding():
    assert mtus_for_bytes(1) == 1
    assert mtus_for_bytes(MTU_BYTES) == 1
    assert mtus_for_bytes(MTU_BYTES + 1) == 2
    assert mtus_for_bytes(32 * 1024) == 8
    assert mtus_for_bytes(64 * 1024) == 16


def test_mtus_for_bytes_rejects_nonpositive():
    with pytest.raises(ValueError):
        mtus_for_bytes(0)
    with pytest.raises(ValueError):
        mtus_for_bytes(-5)


def test_packet_uids_unique():
    uids = {Packet(0, 1, 64).uid for _ in range(100)}
    assert len(uids) == 100


def test_packet_defaults():
    pkt = Packet(0, 1, CONTROL_BYTES, kind=PacketKind.ACK)
    assert pkt.deadline_ns is None
    assert pkt.remaining_mtus == 0
    assert pkt.sent_time_ns == 0
