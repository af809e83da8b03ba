"""A peer that writes and never reads must cost the other clients nothing.

Usage: ``python ci/stalled_peer_smoke.py PORT`` against a running
``python -m repro live --port PORT`` server.  A hostile connection
writes scavenger-class requests as fast as the server takes them and
never reads a byte, so the responses to it back up, first in the kernel
and then in the server's transport.  While it does, an honest
``AdmissionClient`` issues SLO-class calls for three seconds: every one
must come back ``ok`` on its only attempt.  (A dispatcher that awaits
``drain()`` parks on the hostile connection, and these time out or are
rejected from the full queue.)  Exits non-zero, with the statuses seen,
otherwise.
"""

import asyncio
import collections
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.core.qos import WEIGHTS_2_QOS, QoSConfig
from repro.core.slo import SLO, SLOMap
from repro.live.client import AdmissionClient, RetryPolicy
from repro.live.clock import WallClock
from repro.live.events import EventLog
from repro.live.wire import Request, encode_frame

MS = 1_000_000
HOSTILE_REQUESTS = 100_000
HONEST_CALLS = 60


def dial(port: int) -> socket.socket:
    deadline = time.monotonic() + 30
    while True:
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=0.25)
        except OSError:
            if time.monotonic() > deadline:
                sys.exit(f"stalled-peer smoke: nothing listening on port {port}")
            time.sleep(0.25)


def hostile_peer(sock: socket.socket, done: threading.Event) -> None:
    """Write requests for as long as the server takes them; read nothing."""
    frame = encode_frame(
        Request(
            request_id=1, client="hostile", qos_requested=1, qos_run=1,
            downgraded=False, payload_bytes=0, size_mtus=1, attempt=1, issued_ns=0,
        )
    )
    blob = memoryview(frame * 1000)
    sent = 0
    outcome = "still connected"
    while not done.is_set() and sent < HOSTILE_REQUESTS * len(frame):
        try:
            sent += sock.send(blob[sent % len(frame) :])
        except socket.timeout:
            # The server has stopped reading this connection: its
            # handler is held in drain() behind the unread rejects.
            continue
        except ConnectionError:
            outcome = "dropped by the server"
            break
    done.wait()
    print(f"hostile peer: {sent // len(frame)} requests written, 0 bytes read, {outcome}")


async def honest_calls(port: int, log_path: Path) -> "collections.Counter[str]":
    slo_map = SLOMap({0: SLO(25 * MS, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS))
    statuses: "collections.Counter[str]" = collections.Counter()
    with EventLog(log_path) as log:
        client = AdmissionClient(
            "honest", "127.0.0.1", port, slo_map, seed=1, clock=WallClock(), log=log,
            retry=RetryPolicy(
                max_attempts=1, deadline_ns=500 * MS, attempt_timeout_ns=500 * MS
            ),
        )
        try:
            for _ in range(HONEST_CALLS):
                result = await client.call(0, payload_bytes=1024)
                statuses[result.status] += 1
                await asyncio.sleep(0.05)
        finally:
            await client.aclose()
    return statuses


def main() -> None:
    port = int(sys.argv[1])
    sock = dial(port)
    done = threading.Event()
    flood = threading.Thread(target=hostile_peer, args=(sock, done))
    flood.start()
    try:
        time.sleep(0.5)  # the honest calls start inside the flood
        with tempfile.TemporaryDirectory() as tmp:
            statuses = asyncio.run(honest_calls(port, Path(tmp) / "honest.jsonl"))
    finally:
        done.set()
        flood.join()
        sock.close()
    print(f"honest client: {dict(statuses)}")
    if statuses != {"ok": HONEST_CALLS}:
        sys.exit("stalled-peer smoke: an honest call was not served")


if __name__ == "__main__":
    main()
