"""Live-mode admission runtime: real asyncio processes over TCP.

The packet simulator validates Aequitas' admission dynamics in virtual
time; this package runs the *same* admission stack (the transport-
neutral :class:`repro.core.interface.AdmissionEngine`) as actual OS
processes exchanging length-prefixed messages over real sockets:

* :mod:`repro.live.clock` — the wall-clock source (the only audited
  wall-clock read point in the package);
* :mod:`repro.live.wire` — length-prefixed request/response framing;
* :mod:`repro.live.events` — structured JSONL event logs reusing the
  :mod:`repro.obs` span vocabulary;
* :mod:`repro.live.server` — asyncio RPC server with a strict-priority
  service queue;
* :mod:`repro.live.client` — :class:`AdmissionClient`, the reusable
  client-side admission/throttling wrapper (deadline timeouts, jittered
  exponential-backoff retries), plus the open-loop workload driver;
* :mod:`repro.live.workload` — the shared demo-topology spec;
* :mod:`repro.live.telemetry` — the wall-clock metrics sampler, SLO
  burn-rate alerting hookup, and the OpenMetrics ``/metrics`` scrape
  endpoint;
* :mod:`repro.live.runtime` — process orchestration for
  ``python -m repro live``;
* :mod:`repro.live.simref` — the same workload run in the simulator;
* :mod:`repro.live.convergence` — the sim-vs-live ``p_admit``
  agreement gate.

See ``docs/live.md`` for the architecture and the clock-domain caveats
(wall clock versus sim time, why live runs are not bit-identical and
what the convergence tolerance gate checks instead).

This init re-exports only what an embedding application needs to make
and serve calls — the client, the clock, the server and the telemetry
plane.  The process orchestration, the simulator reference and the
convergence gate (``runtime``, ``simref``, ``convergence``) pull in
``multiprocessing``, the sim kernels and :mod:`repro.analysis`; their
consumers (``python -m repro live``, the tests) import those modules
directly, so loading the admission client loads none of them.
"""

from repro.live.client import AdmissionClient, CallResult, RetryPolicy
from repro.live.clock import WallClock
from repro.live.server import LiveServer
from repro.live.telemetry import (
    LiveTelemetry,
    TelemetryConfig,
    TelemetryEndpoint,
    scrape_openmetrics,
)

__all__ = [
    "AdmissionClient",
    "CallResult",
    "LiveServer",
    "LiveTelemetry",
    "RetryPolicy",
    "TelemetryConfig",
    "TelemetryEndpoint",
    "WallClock",
    "scrape_openmetrics",
]
