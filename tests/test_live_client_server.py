"""Fault handling in the live client/server pair, in-process.

One event loop hosts both ends (real asyncio TCP on loopback, no
subprocesses), which makes fault injection deterministic: the server's
``on_request`` hook resets or swallows chosen requests, and the client
must recover exactly as specified — reconnect-and-retry on connection
loss, timeout-and-backoff on silence, a definitive non-retried failure
on queue rejection, and a terminated span when the deadline is
exhausted.  Wall-clock assertions are *bounded* (at least the policy's
floors, below a generous ceiling), never exact — loaded CI machines
stretch sleeps but cannot shrink them.
"""

import asyncio
import json
import random
import struct

import pytest

from repro.core.qos import QoSConfig, WEIGHTS_2_QOS
from repro.core.slo import SLO, SLOMap
from repro.live.client import AdmissionClient, RetryPolicy
from repro.live.clock import WallClock
from repro.live.events import EventLog, read_events
from repro.live.server import FAULT_DROP, FAULT_RESET, LiveServer
from repro.live.wire import (
    MAX_BODY_BYTES,
    FrameWriter,
    Request,
    Response,
    encode_frame,
)
from repro.net.packet import mtus_for_bytes

MS = 1_000_000

#: Fast-failing policy so fault tests stay well under a second each.
FAST_RETRY = RetryPolicy(
    max_attempts=3,
    deadline_ns=2_000 * MS,
    attempt_timeout_ns=60 * MS,
    backoff_base_ns=20 * MS,
    backoff_cap_ns=80 * MS,
    jitter=0.25,
)


def slo_map() -> SLOMap:
    return SLOMap({0: SLO(25 * MS, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS))


def run_stack(
    tmp_path,
    scenario,
    *,
    on_request=None,
    service_ns=1 * MS,
    queue_limit=16,
    retry=FAST_RETRY,
):
    """Start a server + client on loopback and run one scenario coro."""

    async def _main():
        clock = WallClock()
        with EventLog(tmp_path / "server.jsonl") as server_log, EventLog(
            tmp_path / "client.jsonl"
        ) as client_log:
            server = LiveServer(
                clock,
                server_log,
                service_ns_per_mtu=service_ns,
                queue_limit=queue_limit,
                on_request=on_request,
            )
            port = await server.start()
            client = AdmissionClient(
                "c0",
                "127.0.0.1",
                port,
                slo_map(),
                seed=1,
                clock=clock,
                log=client_log,
                retry=retry,
            )
            try:
                return await scenario(server, client, clock)
            finally:
                await client.aclose()
                await server.stop()

    return asyncio.run(_main())


class TestHappyPath:
    def test_single_call_completes_first_attempt(self, tmp_path):
        async def scenario(server, client, clock):
            result = await client.call(0, payload_bytes=4096)
            return result, server.served

        result, served = run_stack(tmp_path, scenario)
        assert result.ok
        assert result.status == "ok"
        assert result.attempts == 1
        assert result.rnl_ns is not None and result.rnl_ns > 0
        assert served == 1
        spans = [
            r for r in read_events(tmp_path / "client.jsonl")
            if r["type"] == "rpc"
        ]
        assert len(spans) == 1
        assert spans[0]["terminated"] is False

    def test_strict_priority_favors_slo_class(self, tmp_path):
        """With the server busy, a queued SLO request is served before
        earlier-queued scavenger requests."""

        async def scenario(server, client, clock):
            first = asyncio.create_task(client.call(0, payload_bytes=4096))
            await asyncio.sleep(0.01)  # first request now in service
            scav = asyncio.create_task(client.call(1, payload_bytes=4096))
            await asyncio.sleep(0.005)
            slo = asyncio.create_task(client.call(0, payload_bytes=4096))
            await asyncio.gather(first, scav, slo)
            spans = [
                r for r in read_events(tmp_path / "server.jsonl")
                if r["type"] == "queue"
            ]
            return spans

        # Patient retries: every call waits out the backlog in one
        # attempt, so the three calls map to exactly three queue spans.
        spans = run_stack(
            tmp_path,
            scenario,
            service_ns=40 * MS,
            retry=RetryPolicy(
                max_attempts=1, deadline_ns=2_000 * MS,
                attempt_timeout_ns=1_000 * MS,
            ),
        )
        assert len(spans) == 3
        scav_span = next(s for s in spans if s["qos"] == 1)
        slo_span = max(
            (s for s in spans if s["qos"] == 0),
            key=lambda s: s["enqueued_ns"],
        )
        # FIFO inverted in favor of the SLO class: the scavenger request
        # entered the queue first but was served last.
        assert slo_span["enqueued_ns"] > scav_span["enqueued_ns"]
        assert slo_span["dequeued_ns"] < scav_span["dequeued_ns"]


class TestConnectionReset:
    def test_reset_reconnects_and_retries(self, tmp_path):
        dropped = []

        def reset_first(request):
            if not dropped:
                dropped.append(request.request_id)
                return FAULT_RESET
            return None

        async def scenario(server, client, clock):
            return await client.call(0, payload_bytes=4096)

        result = run_stack(tmp_path, scenario, on_request=reset_first)
        assert result.ok
        assert result.attempts == 2
        conn_events = [
            r["event"]
            for r in read_events(tmp_path / "client.jsonl")
            if r["type"] == "conn"
        ]
        # One dial, a reset, then the reconnect dial.
        assert conn_events.count("connect") == 2
        assert "reset" in conn_events


class TestServerStall:
    def test_drop_times_out_then_backs_off_and_retries(self, tmp_path):
        dropped = []

        def drop_first(request):
            if not dropped:
                dropped.append(request.request_id)
                return FAULT_DROP
            return None

        async def scenario(server, client, clock):
            start_ns = clock.now_ns()
            result = await client.call(0, payload_bytes=4096)
            return result, clock.now_ns() - start_ns

        result, elapsed_ns = run_stack(tmp_path, scenario, on_request=drop_first)
        assert result.ok
        assert result.attempts == 2
        retries = [
            r for r in read_events(tmp_path / "client.jsonl")
            if r["type"] == "retry"
        ]
        assert len(retries) == 1
        retry = retries[0]
        assert retry["reason"] == "timeout"
        # Jittered exponential backoff from the seeded stream: attempt 1
        # delays base x [1 - jitter, 1 + jitter].
        low = FAST_RETRY.backoff_base_ns * (1 - FAST_RETRY.jitter)
        high = FAST_RETRY.backoff_base_ns * (1 + FAST_RETRY.jitter)
        assert low <= retry["delay_ns"] <= high
        # Bounded, not exact: at least one attempt timeout plus the
        # logged backoff elapsed; well under the deadline ceiling.
        assert elapsed_ns >= FAST_RETRY.attempt_timeout_ns + retry["delay_ns"]
        assert elapsed_ns < FAST_RETRY.deadline_ns

    def test_persistent_stall_exhausts_deadline(self, tmp_path):
        async def scenario(server, client, clock):
            result = await client.call(0, payload_bytes=4096)
            return result, client.failures

        result, failures = run_stack(
            tmp_path, scenario, on_request=lambda request: FAULT_DROP
        )
        assert not result.ok
        assert result.status == "timeout"
        assert result.attempts == FAST_RETRY.max_attempts
        assert failures == 1
        spans = [
            r for r in read_events(tmp_path / "client.jsonl")
            if r["type"] == "rpc"
        ]
        assert spans[-1]["terminated"] is True
        assert spans[-1]["slo_met"] is False


class TestRejection:
    def test_full_queue_rejects_immediately_without_retry(self, tmp_path):
        async def scenario(server, client, clock):
            calls = [
                asyncio.create_task(client.call(0, payload_bytes=4096))
                for _ in range(4)
            ]
            results = await asyncio.gather(*calls)
            return results, server.rejected, client.engine.p_admit("srv", 0)

        results, server_rejected, p_admit = run_stack(
            tmp_path,
            scenario,
            service_ns=50 * MS,
            queue_limit=1,
            retry=RetryPolicy(
                max_attempts=3,
                deadline_ns=2_000 * MS,
                attempt_timeout_ns=400 * MS,
                backoff_base_ns=20 * MS,
            ),
        )
        rejected = [r for r in results if r.status == "rejected"]
        assert rejected and server_rejected == len(rejected)
        for result in rejected:
            assert not result.ok
            # A definitive reject is not retried.
            assert result.attempts == 1
        assert all(r.ok for r in results if r.status == "ok")
        # The reject fed the SLO budget back as a miss: AIMD throttled.
        assert p_admit < 1.0


def raw_frame(header: dict) -> bytes:
    blob = json.dumps(header).encode()
    return struct.pack(">I", len(blob)) + blob


REQUEST_HEADER = {
    "request_id": 1, "client": "evil", "qos_requested": 0, "qos_run": 0,
    "downgraded": False, "payload_bytes": 0, "size_mtus": 1, "attempt": 1,
    "issued_ns": 0, "kind": "req", "body_len": 0,
}


class TestMalformedPeer:
    """A peer that sends garbage is disconnected; nobody else notices."""

    @pytest.mark.parametrize(
        "mutation",
        [
            {"size_mtus": "x"},  # reached the dispatcher, killed it
            {"qos_run": None},  # raised out of the connection handler
            {"qos_run": True},
            {"body_len": None},  # raised out of the frame parser
            {"body_len": "abc"},
            {"kind": "resp"},  # a response sent to a server
            # Sizes the header itself contradicts.  The first one parked
            # the only dispatcher in a 115-day sleep for every client.
            {"size_mtus": 10**13},
            {"size_mtus": 0},
            {"size_mtus": -1},
            {"size_mtus": 2},  # of an empty body
            {"payload_bytes": -1},
            {
                "payload_bytes": MAX_BODY_BYTES + 1,
                "size_mtus": mtus_for_bytes(MAX_BODY_BYTES + 1),
            },
        ],
        ids=lambda m: "-".join(f"{k}={v!r}" for k, v in m.items()),
    )
    def test_server_drops_peer_and_keeps_serving(self, tmp_path, mutation):
        async def scenario(server, client, clock):
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(raw_frame({**REQUEST_HEADER, **mutation}))
            await writer.drain()
            eof = await asyncio.wait_for(reader.read(), timeout=1.0)
            writer.close()
            served_before = server.served
            result = await asyncio.wait_for(
                client.call(0, payload_bytes=1024), timeout=1.0
            )
            return eof, result, served_before, server.served, loop_errors

        eof, result, served_before, served, loop_errors = run_stack(
            tmp_path, scenario
        )
        assert eof == b""  # disconnected, not answered
        assert served_before == 0
        assert result.status == "ok" and result.attempts == 1
        assert served == 1
        assert loop_errors == []

    def test_largest_honest_body_is_served(self, tmp_path):
        """The size check bounds what a peer may claim, not what a
        client may send: ``MAX_BODY_BYTES`` itself goes through."""

        async def scenario(server, client, clock):
            return await client.call(0, payload_bytes=MAX_BODY_BYTES)

        result = run_stack(
            tmp_path,
            scenario,
            service_ns=1000,
            retry=RetryPolicy(max_attempts=1, deadline_ns=5_000 * MS,
                              attempt_timeout_ns=5_000 * MS),
        )
        assert result.status == "ok"

    def test_client_drops_connection_on_wrong_kind_frame(self, tmp_path):
        """A server that answers with a *request* frame: the client's
        reader drops the connection, which fails the in-flight attempt."""

        hung_up = asyncio.Event()

        async def confused_server(reader, writer):
            await reader.readexactly(4)
            writer.write(
                encode_frame(
                    Request(
                        request_id=1, client="srv", qos_requested=0, qos_run=0,
                        downgraded=False, payload_bytes=0, size_mtus=1,
                        attempt=1, issued_ns=0,
                    )
                )
            )
            await writer.drain()
            await reader.read()  # stays open: the client must hang up
            writer.close()
            await writer.wait_closed()
            hung_up.set()

        async def _main():
            listener = await asyncio.start_server(confused_server, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            with EventLog(tmp_path / "client.jsonl") as log:
                client = AdmissionClient(
                    "c0", "127.0.0.1", port, slo_map(), seed=1, clock=WallClock(),
                    log=log, retry=RetryPolicy(max_attempts=1, deadline_ns=500 * MS),
                )
                try:
                    return await client.call(0, payload_bytes=0)
                finally:
                    await client.aclose()
                    await asyncio.wait_for(hung_up.wait(), timeout=1.0)
                    listener.close()
                    await listener.wait_closed()

        result = asyncio.run(_main())
        assert result.status == "error" and result.rnl_ns is None
        conn_events = [
            r["event"] for r in read_events(tmp_path / "client.jsonl")
            if r["type"] == "conn"
        ]
        assert conn_events == ["connect", "reset"]


class TestShutdown:
    def test_double_shutdown_is_idempotent(self, tmp_path):
        async def scenario(server, client, clock):
            result = await client.call(0, payload_bytes=4096)
            await client.aclose()
            await client.aclose()
            await server.stop()
            await server.stop()
            return result

        # run_stack's finally closes both a third time — also covered.
        assert run_stack(tmp_path, scenario).ok

    def test_close_during_dial_does_not_resurrect_connection(self, tmp_path):
        """Close-vs-dial race: a dial already past aclose's ``_closed``
        check must not re-establish the writer and reader task after the
        teardown ran — that leaks a socket and a task on a closed
        client.  aclose now tears down under ``_conn_lock``, so it waits
        for the in-flight dial and then drops whatever it produced."""

        async def scenario(server, client, clock):
            dial = asyncio.create_task(client._ensure_conn())
            await asyncio.sleep(0)  # dial now holds the lock, mid-connect
            assert client._conn_lock.locked()
            await client.aclose()
            try:
                await dial
            except ConnectionError:
                pass  # closed before the dial got through: equally fine
            return client._writer, client._reader_task

        writer, reader_task = run_stack(tmp_path, scenario)
        assert writer is None
        assert reader_task is None

    def test_call_after_close_fails_cleanly(self, tmp_path):
        async def scenario(server, client, clock):
            await client.aclose()
            return await client.call(0, payload_bytes=4096)

        result = run_stack(
            tmp_path,
            scenario,
            retry=RetryPolicy(max_attempts=1, deadline_ns=200 * MS),
        )
        assert not result.ok
        assert result.status == "error"


def conn_events(path):
    return [r["event"] for r in read_events(path) if r["type"] == "conn"]


class TestServerStop:
    """``stop()`` returns with nothing of the server left running: every
    connection handler has finished (not been cancelled by
    ``asyncio.run`` later, which Python 3.11's stream callback reports
    as an ``Exception in callback ... CancelledError`` traceback) and
    has logged its peer's one ``close`` record."""

    def stop_with_peer(self, tmp_path, connect, *, service_ns=200 * MS):
        loop_errors = []

        async def _main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            with EventLog(tmp_path / "server.jsonl") as log:
                server = LiveServer(
                    WallClock(), log, service_ns_per_mtu=service_ns, queue_limit=1
                )
                port = await server.start()
                hang_up = await connect(server, port)
                try:
                    await asyncio.wait_for(server.stop(), timeout=2.0)
                    me = asyncio.current_task()
                    return [t for t in asyncio.all_tasks() if t is not me]
                finally:
                    hang_up()

        left_running = asyncio.run(_main())
        assert left_running == []
        assert loop_errors == []
        assert conn_events(tmp_path / "server.jsonl") == ["accept", "close"]

    @pytest.mark.parametrize(
        "sent",
        [
            b"",  # idle
            raw_frame(REQUEST_HEADER)[:20],  # mid-frame
            raw_frame(REQUEST_HEADER) * 2,  # one in service, one queued
        ],
        ids=["idle", "mid-frame", "queued-work"],
    )
    def test_stop_finishes_the_handler_of_a_connected_peer(self, tmp_path, sent):
        async def connect(server, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(sent)
            await writer.drain()
            await asyncio.sleep(0.05)  # accepted, and what was sent read
            return writer.close

        self.stop_with_peer(tmp_path, connect)

    def test_stop_does_not_wait_for_a_peer_that_stopped_reading(self, tmp_path):
        """The second frame finds the queue full, and its reject blocks
        the handler in ``drain()`` behind a peer that takes no byte; a
        graceful close would wait for that backlog to flush, i.e. for
        ever.  The peer is a transport under asyncio's own stream stack,
        not a socket: when a real kernel stops taking bytes depends on
        its buffer sizes, this one never starts."""

        async def connect(server, port):
            peer = connect_never_reading_peer(server, raw_frame(REQUEST_HEADER) * 2)
            await asyncio.sleep(0.05)
            assert server.rejected == 1 and peer.get_write_buffer_size() > 0
            return lambda: None

        self.stop_with_peer(tmp_path, connect)


class NeverReadingPeer(asyncio.Transport):
    """The server's end of a connection whose peer has stopped reading:
    every byte written stays buffered, so ``close()``, which flushes
    first, never completes; only ``abort()`` loses the connection."""

    def __init__(self, protocol, high_water=64 * 1024):
        super().__init__(extra={"peername": ("192.0.2.1", 9)})
        self._protocol = protocol
        self._buffered = 0
        self._closing = False
        self._high_water = high_water
        self.aborted = False

    def write(self, data):
        if not self._buffered:
            self._protocol.pause_writing()
        self._buffered += len(data)

    def get_write_buffer_size(self):
        return self._buffered

    def get_write_buffer_limits(self):
        return (0, self._high_water)

    def is_closing(self):
        return self._closing

    def close(self):
        self._closing = True

    def abort(self):
        self._closing = self.aborted = True
        asyncio.get_running_loop().call_soon(self._protocol.connection_lost, None)


def connect_never_reading_peer(server, sent, **transport_kwargs):
    """Accept, as the stream stack would, a peer that has written
    ``sent`` and will never read; returns the server's transport to it."""
    reader = asyncio.StreamReader()
    protocol = asyncio.StreamReaderProtocol(reader, server._serve_conn)
    peer = NeverReadingPeer(protocol, **transport_kwargs)
    protocol.connection_made(peer)  # starts the handler, as accept does
    reader.feed_data(sent)
    return peer


class TestStalledPeer:
    """The one dispatcher serves every client, so it may never wait for
    one peer's socket: a peer that writes requests and reads nothing
    costs the others nothing, and is aborted once its unread responses
    pass its transport's high-water mark."""

    def test_honest_client_is_served_while_a_peer_never_reads(self, tmp_path):
        queued = 12  # under the queue limit: the dispatcher owes each a response

        async def scenario(server, client, clock):
            peer = connect_never_reading_peer(
                server, raw_frame(REQUEST_HEADER) * queued, high_water=250
            )
            results = [await client.call(0, payload_bytes=1024) for _ in range(3)]
            return results, peer, server.served

        results, peer, served = run_stack(tmp_path, scenario)
        assert [(r.status, r.attempts) for r in results] == [("ok", 1)] * 3
        # Three ~100-byte responses pass 250 bytes: the peer was dropped
        # there (or a pass later, if a response was held for the end of
        # one) and the rest of what it had queued was not served.
        assert peer.aborted
        assert 3 + 3 <= served < queued + 3
        peers = [
            (r["event"], r["peer"])
            for r in read_events(tmp_path / "server.jsonl")
            if r["type"] == "conn" and r["peer"] == "192.0.2.1:9"
        ]
        assert peers == [("accept", "192.0.2.1:9"), ("close", "192.0.2.1:9")]

    def test_backlog_under_the_high_water_mark_is_left_alone(self, tmp_path):
        async def scenario(server, client, clock):
            peer = connect_never_reading_peer(server, raw_frame(REQUEST_HEADER) * 4)
            result = await client.call(0, payload_bytes=1024)
            return result, server.served, peer.get_write_buffer_size(), peer.aborted

        result, served, backlog, aborted = run_stack(tmp_path, scenario)
        assert result.status == "ok"
        assert served == 4 + 1
        assert 0 < backlog < 64 * 1024 and not aborted


class RecordingTransport(asyncio.Transport):
    """Takes every byte at once and remembers each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes = []
        self.closing = False

    def write(self, data):
        self.writes.append(bytes(data))

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


class TestFrameWriter:
    RESPONSES = [
        Response(request_id=i, status="ok", queue_ns=i, service_ns=1) for i in range(8)
    ]
    #: Bodies around the 64 KiB zero chunk, to cover chunked bodies too.
    BODY_LENS = [0, 1024, 0, 70_000, 0, 65_536, 3, 0]

    def run(self, scenario):
        async def _main():
            transport = RecordingTransport()
            protocol = asyncio.StreamReaderProtocol(asyncio.StreamReader())
            stream = asyncio.StreamWriter(
                transport, protocol, None, asyncio.get_running_loop()
            )
            try:
                return await scenario(FrameWriter(stream), transport)
            finally:
                stream.close()

        return asyncio.run(_main())

    def test_eight_sends_in_one_pass_leave_in_at_most_two_writes(self):
        async def scenario(writer, transport):
            for response, body_len in zip(self.RESPONSES, self.BODY_LENS):
                writer.send(response, body_len=body_len)
            before_pass_end = list(transport.writes)
            await asyncio.sleep(0)  # the pass ends
            return before_pass_end, transport.writes

        before_pass_end, writes = self.run(scenario)
        frames = [
            encode_frame(response, body_len=body_len) + bytes(body_len)
            for response, body_len in zip(self.RESPONSES, self.BODY_LENS)
        ]
        # The first frame did not wait for the others ...
        assert before_pass_end == frames[:1]
        # ... which left together, and nothing overtook anything.
        assert len(writes) == 2
        assert b"".join(writes) == b"".join(frames)

    def test_each_pass_starts_afresh(self):
        async def scenario(writer, transport):
            seen = []
            for response in self.RESPONSES[:3]:
                writer.send(response)
                seen.append(len(transport.writes))
                await asyncio.sleep(0)
            return seen, transport.writes

        seen, writes = self.run(scenario)
        assert seen == [1, 2, 3]  # a lone send is on the wire at once
        assert writes == [encode_frame(r) for r in self.RESPONSES[:3]]

    def test_send_on_a_closing_transport_raises(self):
        async def scenario(writer, transport):
            transport.closing = True
            with pytest.raises(ConnectionResetError):
                writer.send(self.RESPONSES[0])
            return transport.writes

        assert self.run(scenario) == []


class TestAttemptTimer:
    """One ``TimerHandle`` per client bounds every attempt, each at its
    own expiry; nothing of an attempt outlives it."""

    PATIENT = RetryPolicy(
        max_attempts=1, deadline_ns=2_000 * MS, attempt_timeout_ns=60 * MS
    )

    @staticmethod
    def live_timers():
        loop = asyncio.get_running_loop()
        return [h for h in loop._scheduled if not h.cancelled()]

    def test_attempts_expire_at_their_own_times_on_one_timer(self, tmp_path):
        async def scenario(server, client, clock):
            loop = asyncio.get_running_loop()
            await client._ensure_conn()
            idle_timers = len(self.live_timers())
            start = loop.time()
            expired_at = {}

            async def attempt(rpc_id, timeout_s):
                future = client._pending[rpc_id] = loop.create_future()
                client._expire_at(loop, rpc_id, start + timeout_s)
                with pytest.raises(asyncio.TimeoutError):
                    await future
                expired_at[rpc_id] = loop.time() - start

            # The second expiry is sooner than the armed one, the third is
            # not: one re-arm, and still one timer.
            tasks = [
                asyncio.ensure_future(attempt(rpc_id, timeout_s))
                for rpc_id, timeout_s in ((1, 0.09), (2, 0.03), (3, 0.06))
            ]
            await asyncio.sleep(0)
            timers = len(self.live_timers()) - idle_timers
            await asyncio.gather(*tasks)
            return expired_at, timers, dict(client._expiries), client._timer

        expired_at, timers, expiries, timer = run_stack(tmp_path, scenario)
        assert timers == 1
        assert list(expired_at) == [2, 3, 1]
        for rpc_id, timeout_s in ((1, 0.09), (2, 0.03), (3, 0.06)):
            # Never early; late only by what a loaded machine adds.
            assert timeout_s <= expired_at[rpc_id] < timeout_s + 0.025
        assert expiries == {} and timer is None

    def test_calls_time_out_one_attempt_timeout_after_they_were_sent(self, tmp_path):
        async def scenario(server, client, clock):
            async def timed_call():
                start_ns = clock.now_ns()
                result = await client.call(0, payload_bytes=1024)
                return result.status, clock.now_ns() - start_ns

            first = asyncio.ensure_future(timed_call())
            await asyncio.sleep(0.03)
            second = asyncio.ensure_future(timed_call())
            await asyncio.sleep(0.01)
            timers = len(self.live_timers())
            return await first, await second, timers

        first, second, timers = run_stack(
            tmp_path, scenario, on_request=lambda request: FAULT_DROP, retry=self.PATIENT
        )
        for status, elapsed_ns in (first, second):
            assert status == "timeout"
            assert 60 * MS <= elapsed_ns < 100 * MS
        assert timers == 1

    def test_a_response_leaves_nothing_behind_and_aclose_cancels_the_timer(
        self, tmp_path
    ):
        async def scenario(server, client, clock):
            results = await asyncio.gather(
                *(client.call(0, payload_bytes=1024) for _ in range(4))
            )
            left = dict(client._expiries), dict(client._pending)
            timer = client._timer
            armed = timer is not None and not timer.cancelled()
            await client.aclose()
            return results, left, armed, timer.cancelled(), client._timer

        results, left, armed, cancelled, timer = run_stack(tmp_path, scenario)
        assert [r.status for r in results] == ["ok"] * 4
        assert left == ({}, {})
        # Still armed for the first call's timeout (re-arming per call is
        # the cost this design removes) until the client is closed.
        assert armed and cancelled and timer is None

    def test_drop_conn_fails_waiting_attempts_and_their_expiries(self, tmp_path):
        async def scenario(server, client, clock):
            calls = [
                asyncio.ensure_future(client.call(0, payload_bytes=1024))
                for _ in range(3)
            ]
            await asyncio.sleep(0.02)
            waiting = len(client._expiries)
            client._drop_conn("reset")
            results = await asyncio.gather(*calls)
            return waiting, results, dict(client._expiries), dict(client._pending)

        waiting, results, expiries, pending = run_stack(
            tmp_path, scenario, on_request=lambda request: FAULT_DROP, retry=self.PATIENT
        )
        assert waiting == 3
        assert [(r.status, r.attempts) for r in results] == [("error", 1)] * 3
        assert expiries == {} and pending == {}


class TestConnectionSharing:
    """What ``_ensure_conn`` guarantees, however a call reaches it: one
    dial per connection, no dial on a closed client, and a dial that
    only ever happens with ``_conn_lock`` held."""

    def test_concurrent_first_calls_dial_once(self, tmp_path):
        async def scenario(server, client, clock):
            return await asyncio.gather(
                *(client.call(i & 1, payload_bytes=1024) for i in range(32))
            )

        results = run_stack(tmp_path, scenario, service_ns=1000, queue_limit=64)
        assert [r.status for r in results] == ["ok"] * 32
        assert conn_events(tmp_path / "client.jsonl") == ["connect", "close"]

    def test_call_after_close_of_a_used_client_does_not_redial(self, tmp_path):
        async def scenario(server, client, clock):
            first = await client.call(0, payload_bytes=1024)
            await client.aclose()
            return first, await client.call(0, payload_bytes=1024), client.failures

        first, late, failures = run_stack(
            tmp_path,
            scenario,
            retry=RetryPolicy(max_attempts=1, deadline_ns=200 * MS),
        )
        assert first.ok
        assert (late.ok, late.status, late.attempts, late.rnl_ns) == (
            False, "error", 1, None,
        )
        assert failures == 1
        assert conn_events(tmp_path / "client.jsonl") == ["connect", "close"]
        spans = [
            r for r in read_events(tmp_path / "client.jsonl") if r["type"] == "rpc"
        ]
        assert [s["terminated"] for s in spans] == [False, True]

    def test_call_on_a_closing_writer_redials_under_the_lock(
        self, tmp_path, monkeypatch
    ):
        async def scenario(server, client, clock):
            first = await client.call(0, payload_bytes=1024)
            dials_locked = []
            open_connection = asyncio.open_connection

            async def watched(*args, **kwargs):
                dials_locked.append(client._conn_lock.locked())
                return await open_connection(*args, **kwargs)

            monkeypatch.setattr(asyncio, "open_connection", watched)
            # Closing but not yet noticed by the reader task: the next
            # call must not write into this writer.
            client._writer.close()
            assert client._writer is not None and client._writer.is_closing()
            second = await client.call(0, payload_bytes=1024)
            return first, second, dials_locked

        first, second, dials_locked = run_stack(tmp_path, scenario)
        assert first.ok and second.ok
        assert dials_locked and all(dials_locked)
        assert conn_events(tmp_path / "client.jsonl").count("connect") == 1 + len(
            dials_locked
        )


class TestBackoffSchedule:
    def test_exponential_doubling_capped_with_jitter_bounds(self):
        policy = RetryPolicy(
            backoff_base_ns=10 * MS, backoff_cap_ns=70 * MS, jitter=0.25
        )
        rng = random.Random(42)
        for attempt in range(1, 8):
            raw = min(policy.backoff_cap_ns, policy.backoff_base_ns * 2 ** (attempt - 1))
            delay = policy.backoff_ns(attempt, rng)
            assert raw * (1 - policy.jitter) <= delay <= raw * (1 + policy.jitter)

    def test_seeded_stream_is_reproducible(self):
        policy = RetryPolicy()
        a = [policy.backoff_ns(n, random.Random(7)) for n in range(1, 5)]
        b = [policy.backoff_ns(n, random.Random(7)) for n in range(1, 5)]
        assert a == b

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
