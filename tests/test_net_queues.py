"""Unit tests for all packet schedulers (FIFO, WFQ, SPQ, DWRR, pFabric)."""

import pytest

from repro.net.packet import Packet
from repro.net.queues import (
    DwrrScheduler,
    FifoScheduler,
    PFabricScheduler,
    StrictPriorityScheduler,
    WfqScheduler,
)


def pkt(qos=0, size=1000, remaining=0):
    return Packet(src=0, dst=1, size_bytes=size, qos=qos, remaining_mtus=remaining)


# ----------------------------------------------------------------------
# FIFO
# ----------------------------------------------------------------------
def test_fifo_order():
    q = FifoScheduler(buffer_bytes=10_000)
    pkts = [pkt(qos=i % 2) for i in range(5)]
    for p in pkts:
        assert q.enqueue(p)
    assert [q.dequeue() for _ in range(5)] == pkts
    assert q.dequeue() is None


def test_fifo_buffer_overflow_drops():
    q = FifoScheduler(buffer_bytes=2500)
    assert q.enqueue(pkt(size=1000))
    assert q.enqueue(pkt(size=1000))
    assert not q.enqueue(pkt(size=1000))
    assert q.stats.total_dropped == 1
    assert len(q) == 2


# ----------------------------------------------------------------------
# WFQ
# ----------------------------------------------------------------------
def test_wfq_rejects_bad_weights():
    with pytest.raises(ValueError):
        WfqScheduler((4, 0), 1000)


def test_wfq_single_class_is_fifo():
    q = WfqScheduler((1,), buffer_bytes=100_000)
    pkts = [pkt(qos=0) for _ in range(10)]
    for p in pkts:
        q.enqueue(p)
    assert [q.dequeue() for _ in range(10)] == pkts


def test_wfq_bandwidth_shares_match_weights():
    """With both classes persistently backlogged, dequeued bytes track
    the 4:1 weights — the g_i = phi_i/sum(phi) * r guarantee."""
    q = WfqScheduler((4, 1), buffer_bytes=10**9)
    for _ in range(500):
        q.enqueue(pkt(qos=0))
        q.enqueue(pkt(qos=1))
    counts = [0, 0]
    for _ in range(400):
        counts[q.dequeue().qos] += 1
    assert counts[0] / counts[1] == pytest.approx(4.0, rel=0.05)


def test_wfq_work_conserving():
    """An empty high class must not block the low class."""
    q = WfqScheduler((100, 1), buffer_bytes=10**9)
    low = [pkt(qos=1) for _ in range(5)]
    for p in low:
        q.enqueue(p)
    assert [q.dequeue() for _ in range(5)] == low


def test_wfq_within_class_fifo():
    q = WfqScheduler((4, 1), buffer_bytes=10**9)
    first = pkt(qos=0)
    second = pkt(qos=0)
    q.enqueue(first)
    q.enqueue(pkt(qos=1))
    q.enqueue(second)
    out = [q.dequeue() for _ in range(3)]
    assert out.index(first) < out.index(second)


def test_wfq_idle_reset_keeps_isolation():
    """After the system empties, virtual time resets and a fresh burst
    is scheduled identically to the first one."""
    q = WfqScheduler((4, 1), buffer_bytes=10**9)

    def burst_order():
        for _ in range(10):
            q.enqueue(pkt(qos=0))
            q.enqueue(pkt(qos=1))
        order = []
        while True:
            p = q.dequeue()
            if p is None:
                break
            order.append(p.qos)
        return order

    assert burst_order() == burst_order()


def test_wfq_unequal_packet_sizes():
    """Byte-based tags: a class sending 2x-size packets gets ~2x fewer
    packets through at equal weights."""
    q = WfqScheduler((1, 1), buffer_bytes=10**9)
    for _ in range(400):
        q.enqueue(pkt(qos=0, size=2000))
        q.enqueue(pkt(qos=1, size=1000))
    bytes_out = [0, 0]
    for _ in range(300):
        p = q.dequeue()
        bytes_out[p.qos] += p.size_bytes
    assert bytes_out[0] / bytes_out[1] == pytest.approx(1.0, rel=0.05)


def test_wfq_drop_on_full_buffer():
    q = WfqScheduler((4, 1), buffer_bytes=2000)
    assert q.enqueue(pkt(qos=0, size=1000))
    assert q.enqueue(pkt(qos=1, size=1000))
    assert not q.enqueue(pkt(qos=0, size=1000))
    assert q.stats.dropped[0] == 1


def test_wfq_class_backlog_tracking():
    q = WfqScheduler((4, 1), buffer_bytes=10**9)
    q.enqueue(pkt(qos=0, size=1234))
    q.enqueue(pkt(qos=1, size=111))
    assert q._class_bytes == [1234, 111]
    q.dequeue()
    q.dequeue()
    assert q._class_bytes == [0, 0]


def test_wfq_out_of_range_qos_rejected():
    q = WfqScheduler((4, 1), buffer_bytes=10**9)
    with pytest.raises(ValueError):
        q.enqueue(pkt(qos=5))


# ----------------------------------------------------------------------
# Strict priority
# ----------------------------------------------------------------------
def test_spq_always_serves_highest():
    q = StrictPriorityScheduler(3, buffer_bytes=10**9)
    q.enqueue(pkt(qos=2))
    q.enqueue(pkt(qos=1))
    q.enqueue(pkt(qos=0))
    assert [q.dequeue().qos for _ in range(3)] == [0, 1, 2]


def test_spq_starves_low_class():
    q = StrictPriorityScheduler(2, buffer_bytes=10**9)
    q.enqueue(pkt(qos=1))
    for _ in range(50):
        q.enqueue(pkt(qos=0))
        assert q.dequeue().qos == 0
    assert q.dequeue().qos == 1


# ----------------------------------------------------------------------
# DWRR
# ----------------------------------------------------------------------
def test_dwrr_shares_match_weights():
    q = DwrrScheduler((4, 1), buffer_bytes=10**9)
    for _ in range(500):
        q.enqueue(pkt(qos=0))
        q.enqueue(pkt(qos=1))
    counts = [0, 0]
    for _ in range(400):
        counts[q.dequeue().qos] += 1
    assert counts[0] / counts[1] == pytest.approx(4.0, rel=0.15)


def test_dwrr_work_conserving():
    q = DwrrScheduler((100, 1), buffer_bytes=10**9)
    q.enqueue(pkt(qos=1))
    assert q.dequeue().qos == 1
    assert q.dequeue() is None


def test_dwrr_drains_completely():
    q = DwrrScheduler((8, 4, 1), buffer_bytes=10**9)
    n = 90
    for i in range(n):
        q.enqueue(pkt(qos=i % 3))
    seen = 0
    while q.dequeue() is not None:
        seen += 1
    assert seen == n


# ----------------------------------------------------------------------
# pFabric
# ----------------------------------------------------------------------
def test_pfabric_serves_smallest_remaining_first():
    q = PFabricScheduler(buffer_bytes=10**9)
    q.enqueue(pkt(remaining=10))
    q.enqueue(pkt(remaining=1))
    q.enqueue(pkt(remaining=5))
    assert [q.dequeue().remaining_mtus for _ in range(3)] == [1, 5, 10]


def test_pfabric_fifo_among_equal_remaining():
    q = PFabricScheduler(buffer_bytes=10**9)
    a, b = pkt(remaining=3), pkt(remaining=3)
    q.enqueue(a)
    q.enqueue(b)
    assert q.dequeue() is a
    assert q.dequeue() is b


def test_pfabric_drops_largest_on_overflow():
    q = PFabricScheduler(buffer_bytes=2048)
    big = pkt(size=1024, remaining=100)
    small_1 = pkt(size=1024, remaining=1)
    q.enqueue(big)
    q.enqueue(small_1)
    # Full.  A smaller-remaining arrival evicts the largest-remaining.
    small_2 = pkt(size=1024, remaining=2)
    assert q.enqueue(small_2)
    out = [q.dequeue(), q.dequeue()]
    assert big not in out
    assert q.dequeue() is None


def test_pfabric_rejects_arrival_larger_than_queued():
    q = PFabricScheduler(buffer_bytes=2048)
    q.enqueue(pkt(size=1024, remaining=1))
    q.enqueue(pkt(size=1024, remaining=2))
    assert not q.enqueue(pkt(size=1024, remaining=50))
    assert len(q) == 2


def test_pfabric_byte_accounting_after_evictions():
    q = PFabricScheduler(buffer_bytes=4096)
    for r in (9, 8, 7, 6):
        q.enqueue(pkt(size=1024, remaining=r))
    q.enqueue(pkt(size=1024, remaining=1))  # evicts remaining=9
    total = 0
    while True:
        p = q.dequeue()
        if p is None:
            break
        total += p.size_bytes
    assert total == 4096
    assert q.bytes_queued == 0


# ----------------------------------------------------------------------
# Work-conservation / accounting regressions
# ----------------------------------------------------------------------
def test_dwrr_fractional_weights_single_class_work_conserving():
    """Regression: dequeue once capped its scan at 2*len(active)+1
    visits.  With weights (0.5, 0.3, 0.2) the qos-2 quantum is 819.2B,
    so a 4096B packet needs 5 grants and the bounded loop returned None
    with backlog — the port went idle forever over a queued packet."""
    q = DwrrScheduler((0.5, 0.3, 0.2), buffer_bytes=10**6)
    p = pkt(qos=2, size=4096)
    assert q.enqueue(p)
    assert q.dequeue() is p
    assert q.packets_queued == 0
    assert q.dequeue() is None


def test_dwrr_fractional_weight_shares():
    """Fractional weights must both stay work conserving and still
    deliver the 0.5/0.3/0.2 byte shares under persistent backlog."""
    q = DwrrScheduler((0.5, 0.3, 0.2), buffer_bytes=10**9)
    for _ in range(600):
        for qos in range(3):
            assert q.enqueue(pkt(qos=qos, size=1000))
    served = {0: 0, 1: 0, 2: 0}
    for _ in range(900):
        p = q.dequeue()
        assert p is not None, "DWRR returned None with backlog queued"
        served[p.qos] += p.size_bytes
    total = sum(served.values())
    assert abs(served[0] / total - 0.5) < 0.05
    assert abs(served[1] / total - 0.3) < 0.05
    assert abs(served[2] / total - 0.2) < 0.05


def test_dwrr_drains_after_idle_and_refill():
    q = DwrrScheduler((0.5, 0.3, 0.2), buffer_bytes=10**6)
    for _ in range(3):
        pkts = [pkt(qos=i % 3, size=4096) for i in range(6)]
        for p in pkts:
            assert q.enqueue(p)
        out = []
        while True:
            p = q.dequeue()
            if p is None:
                break
            out.append(p)
        assert sorted(p.uid for p in out) == sorted(p.uid for p in pkts)
        assert q.packets_queued == 0 and q.bytes_queued == 0


def test_wfq_drain_refill_across_virtual_time_resets():
    """Drain to empty (virtual-time reset), refill with an identical
    pattern so fresh finish tags coincide with pre-reset ones.  Stale
    head-heap detection must key on packet identity, not float tag
    equality — every cycle must serve exactly its own packets, in
    per-class FIFO order."""
    q = WfqScheduler((8, 4, 1), buffer_bytes=10**9)
    for _ in range(5):
        pkts = [pkt(qos=i % 3, size=1500) for i in range(9)]
        for p in pkts:
            assert q.enqueue(p)
        out = [q.dequeue() for _ in range(9)]
        assert q.dequeue() is None
        assert q.packets_queued == 0 and q.bytes_queued == 0
        assert sorted(p.uid for p in out) == sorted(p.uid for p in pkts)
        for qos in range(3):
            assert [p.uid for p in out if p.qos == qos] == [
                p.uid for p in pkts if p.qos == qos
            ]


def test_fifo_per_class_byte_stats():
    """Regression: the shared FIFO once recorded the queue *total* as
    every class's occupancy figure instead of that class's bytes (the
    sanitizer's byte-conservation check reads the per-class figure)."""
    q = FifoScheduler(buffer_bytes=10**6, num_classes=2)
    assert q.enqueue(pkt(qos=0, size=1000))
    assert q.enqueue(pkt(qos=1, size=500))
    assert q.enqueue(pkt(qos=0, size=1000))
    assert q._class_bytes == [2000, 500]
    q.dequeue()
    q.dequeue()
    assert q._class_bytes == [1000, 0]
