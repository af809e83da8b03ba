"""The live workload replayed in the discrete-event simulator.

:func:`run_sim_reference` runs the *identical* workload the live
runtime runs — same arrival schedules (from
:func:`repro.live.client.arrival_schedule`), same per-client admission
engines with the same seeds, same strict-priority serial server — but
in virtual time on the simulation kernel.  The result is the
``p_admit`` trajectory set the live run is gated against: since both
worlds consume the same coin-flip substreams on the same arrival
sequences, their trajectories must settle to the same equilibrium, and
any disagreement beyond the convergence tolerance means the live
runtime's admission plumbing (not its timing) diverged.

This is deliberately a *model* of the live server, not a packet-level
simulation: requests take ``service_ns_per_mtu × size_mtus`` in a
single serial service unit with strict-priority FIFO queues, matching
the live dispatcher's discipline.  Wire and event-loop overheads are
absent — that is the point; they are what the tolerance absorbs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Tuple

from repro.core.interface import AdmissionEngine
from repro.live.client import arrival_schedule
from repro.live.workload import LiveWorkload
from repro.obs.series import Track
from repro.sim.engine import Simulator


class _RefServer:
    """Serial strict-priority service unit in virtual time.

    Mirrors :class:`repro.live.server.LiveServer`'s dispatcher,
    including the bounded per-QoS queues with tail drop: ``submit``
    returns ``False`` for a rejected request (queue full), exactly when
    the live server would answer ``"rejected"``.
    """

    def __init__(self, sim: object, qos_levels: int, queue_limit: int) -> None:
        self._sim = sim
        self._queue_limit = queue_limit
        self._queues: List[Deque[Tuple[int, Callable[[], None]]]] = [
            deque() for _ in range(qos_levels)
        ]
        self._busy = False
        self.served = 0
        self.rejected = 0

    def submit(self, qos: int, service_ns: int, done: Callable[[], None]) -> bool:
        qos = min(max(qos, 0), len(self._queues) - 1)
        if len(self._queues[qos]) >= self._queue_limit:
            self.rejected += 1
            return False
        self._queues[qos].append((service_ns, done))
        if not self._busy:
            self._busy = True
            self._start_next()
        return True

    def _start_next(self) -> None:
        for queue in self._queues:
            if queue:
                service_ns, done = queue.popleft()
                self._sim.post(service_ns, self._finish, done)
                return
        self._busy = False

    def _finish(self, done: Callable[[], None]) -> None:
        self.served += 1
        done()
        self._start_next()


def run_sim_reference(workload: LiveWorkload) -> Dict[str, Track]:
    """Run the live demo topology in virtual time; returns the raw
    per-channel ``p_admit`` adjustment tracks, keyed ``cN->srv/qosM``
    (the same keys :func:`repro.live.convergence.tracks_from_logs` reads
    from live client logs)."""
    sim = Simulator()
    slo_map = workload.slo_map()
    tracks: Dict[str, Track] = {}
    server = _RefServer(sim, slo_map.qos_config.num_levels, workload.queue_limit)

    def observer_for(index: int) -> Callable[[str, int, float, str, int], None]:
        client = workload.client_id(index)

        def observe(dst: str, qos: int, p: float, kind: str, now: int) -> None:
            tracks.setdefault(f"{client}->{dst}/qos{qos}", []).append((now, p))

        return observe

    engines: List[AdmissionEngine] = []
    for index in range(workload.clients):
        engine = AdmissionEngine(
            slo_map,
            workload.params,
            seed=workload.admission_seed(index),
            clock=lambda: sim.now,
            on_adjust=observer_for(index),
        )
        engines.append(engine)

    service_ns = workload.service_ns_per_mtu * workload.size_mtus

    def issue(index: int, qos: int) -> None:
        engine = engines[index]
        outcome = engine.decide(workload.server_key, qos, workload.payload_bytes)
        issued_ns = sim.now

        def complete() -> None:
            engine.complete(
                workload.server_key,
                sim.now - issued_ns,
                workload.size_mtus,
                outcome.qos_run,
            )

        if not server.submit(outcome.qos_run, service_ns, complete):
            # Tail-dropped: the live client feeds exactly the SLO
            # budget back as the miss measurement, so match it.
            if slo_map.has_slo(outcome.qos_run):
                engine.complete(
                    workload.server_key,
                    slo_map.get(outcome.qos_run).budget_ns(workload.size_mtus),
                    workload.size_mtus,
                    outcome.qos_run,
                )

    # The clock reads 0, so each client's arrival times are the delays
    # of one pre-sorted run (kernel contract rule 7).
    for index in range(workload.clients):
        sim.post_run(
            issue,
            [
                (arrival_ns, (index, qos))
                for arrival_ns, qos in arrival_schedule(workload, index)
            ],
        )

    sim.run(until=workload.duration_ns)
    return tracks


__all__ = ["run_sim_reference"]
