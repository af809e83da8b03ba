"""The sim-vs-live convergence gate and its simulator reference.

Three layers under test: the forward-fill and grid the gate shares with
the series builder (:func:`repro.obs.series.fill_on_grid`,
:func:`repro.obs.series.uniform_grid`), the settled-value comparison
(:func:`compare_tracks`) the CI job gates on, and the
simulator reference itself — which must be deterministic (same
workload, same tracks, bit-for-bit) and must actually *throttle* under
the demo's engineered overload, or the gate would pass vacuously.
"""

import pytest

from repro.analysis.convergence import per_qos_convergence
from repro.live.convergence import (
    DETECTOR_TOLERANCE,
    GRID_POINTS,
    CompareResult,
    compare_tracks,
    tracks_from_logs,
)
from repro.live.events import EventLog
from repro.live.simref import run_sim_reference
from repro.live.workload import LiveWorkload
from repro.obs.series import build_series, fill_on_grid, uniform_grid
from repro.obs.trace import AdmissionEvent

SECOND = 1_000_000_000


class TestFillTrack:
    def test_empty_track_holds_initial_value(self):
        filled = fill_on_grid([], uniform_grid(SECOND, 5))
        assert filled == [
            (0, 1.0), (SECOND // 4, 1.0), (SECOND // 2, 1.0),
            (3 * SECOND // 4, 1.0), (SECOND, 1.0),
        ]

    def test_forward_fill_holds_last_adjustment(self):
        track = [(SECOND // 2, 0.4)]
        filled = fill_on_grid(track, uniform_grid(SECOND, 5))
        assert [v for _, v in filled] == [1.0, 1.0, 0.4, 0.4, 0.4]

    def test_unsorted_input_is_ordered_first(self):
        track = [(750_000_000, 0.2), (250_000_000, 0.8)]
        filled = fill_on_grid(track, uniform_grid(SECOND, 5))
        assert [v for _, v in filled] == [1.0, 0.8, 0.8, 0.2, 0.2]

    def test_needs_two_grid_points(self):
        with pytest.raises(ValueError):
            uniform_grid(SECOND, 1)

    def test_same_instant_adjustments_keep_the_last_made(self):
        """Two adjustments of one channel in one nanosecond: the one made
        last holds, in the gate and in the series alike."""
        track = [(0, 0.9), (500, 0.5), (500, 0.4)]
        gate = compare_tracks(
            {"c0->srv/qos0": track}, {"c0->srv/qos0": [(0, 0.4)]}, 1_000
        )
        assert gate.deltas[0].sim_settled == pytest.approx(0.4)
        series = build_series(
            [AdmissionEvent(t, "c0->srv", 0, p, "decrease") for t, p in track],
            [], [], [], {}, [0, 500, 1_000],
            slo_ns={}, slo_miss_rate={}, attribution={}, alerts=[],
        )
        assert series["p_admit"]["c0->srv/qos0"][-1] == (1_000, 0.4)


def settled_tracks(value: float, channels: int = 2, qos: int = 0):
    """Raw tracks that settle immediately at ``value`` on every channel."""
    return {
        f"c{i}->srv/qos{qos}": [
            (t * SECOND // 10, value) for t in range(1, 10)
        ]
        for i in range(channels)
    }


class TestCompareTracks:
    def test_agreeing_sides_pass(self):
        result = compare_tracks(
            settled_tracks(0.4), settled_tracks(0.45), 1 * SECOND
        )
        assert isinstance(result, CompareResult)
        assert result.ok
        (delta,) = result.deltas
        assert delta.qos == 0
        assert delta.delta == pytest.approx(0.05, abs=1e-9)
        assert "ok" in delta.render()

    def test_disagreement_beyond_tolerance_fails(self):
        result = compare_tracks(
            settled_tracks(0.9), settled_tracks(0.3), 1 * SECOND
        )
        assert not result.ok
        assert "FAIL" in result.report()

    def test_missing_live_qos_is_a_problem(self):
        result = compare_tracks(
            settled_tracks(0.4, qos=0), settled_tracks(0.4, qos=2), 1 * SECOND
        )
        assert not result.ok
        assert any("no qos0" in p for p in result.problems)
        assert any("unexpected qos2" in p for p in result.problems)

    def test_empty_sides_are_problems(self):
        result = compare_tracks({}, {}, 1 * SECOND)
        assert not result.ok
        assert len(result.problems) == 2

    def test_report_carries_verdict_line(self):
        ok = compare_tracks(settled_tracks(0.5), settled_tracks(0.5), SECOND)
        assert ok.report().splitlines()[-1].strip() == "verdict: OK"


class TestTracksFromLogs:
    def test_reads_and_merges_client_logs(self, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"c{i}.jsonl"
            with EventLog(path) as log:
                log.admission(
                    AdmissionEvent(
                        time_ns=100 + i,
                        channel=f"c{i}->srv",
                        qos=0,
                        p_admit=0.5,
                        kind="decrease",
                    )
                )
            paths.append(path)
        tracks = tracks_from_logs(paths)
        assert set(tracks) == {"c0->srv/qos0", "c1->srv/qos0"}


class TestSimReference:
    @pytest.fixture(scope="class")
    def workload(self):
        return LiveWorkload(duration_s=8.0)

    @pytest.fixture(scope="class")
    def tracks(self, workload):
        return run_sim_reference(workload)

    def test_deterministic_across_runs(self, workload, tracks):
        assert run_sim_reference(workload) == tracks

    def test_one_track_per_client_on_the_slo_class(self, workload, tracks):
        slo_keys = {k for k in tracks if k.endswith("/qos0")}
        assert slo_keys == {
            f"{workload.client_id(i)}->srv/qos0"
            for i in range(workload.clients)
        }

    def test_overload_throttles_the_slo_class(self, workload, tracks):
        """At 1.8x engineered overload the reference must settle the
        admit probability well below 1.0 — and off the 0.01 floor, or
        the demo would be showing collapse rather than control."""
        grid = uniform_grid(workload.duration_ns, GRID_POINTS)
        verdicts = per_qos_convergence(
            {key: fill_on_grid(track, grid) for key, track in tracks.items()},
            tolerance=DETECTOR_TOLERANCE,
        )
        settled = verdicts[0].settled_value
        assert 0.05 < settled < 0.9

    def test_gate_passes_against_itself(self, workload, tracks):
        result = compare_tracks(tracks, tracks, workload.duration_ns)
        assert result.ok
        assert all(d.delta == 0.0 for d in result.deltas)
