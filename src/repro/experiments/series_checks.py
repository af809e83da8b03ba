"""Series-aware claims shared by figure drivers.

A plain sweep's ``check`` judges the curve; when the sweep ran with
``--trace`` the runner also hands the driver the traced companion
scenario's analysis series (see :mod:`repro.obs.series`), and these
helpers judge *that* — the control loop actually settled, the
SLO-carrying QoS levels stayed inside their miss budget, and the series
document has the shape downstream report tooling expects.  The bounds
are the same in every profile: they hold the companion, not the sweep.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.analysis.convergence import per_qos_convergence
from repro.obs.series import SERIES_SCHEMA
from repro.runner.point import Bound, Claim, judge


def _as_tracks(
    raw: Mapping[str, Sequence[Sequence[float]]],
) -> Dict[str, List[Tuple[int, float]]]:
    """Coerce stored tracks (lists after a JSON round-trip, tuples when
    fresh) into the ``(int ns, float)`` pairs the detector expects."""
    return {
        name: [(int(t), float(v)) for t, v in points]
        for name, points in raw.items()
    }


def settled_p_admit(series: Mapping[str, object]) -> Dict[int, float]:
    """Per-QoS settled admit probability of a traced run's channels."""
    p_admit = series["p_admit"]
    assert isinstance(p_admit, Mapping)
    return {
        qos: verdict.settled_value
        for qos, verdict in per_qos_convergence(_as_tracks(p_admit)).items()
    }


def _size(value: object) -> float:
    return float(len(value)) if isinstance(value, Mapping) else 0.0


def series_claims(
    series: Mapping[str, object],
    figure: str,
    converge_qos: Iterable[int] = (),
    max_slo_miss: float = 0.10,
) -> List[Claim]:
    """Structural and convergence claims on a traced run's series.

    ``converge_qos`` lists the QoS levels whose per-channel ``p_admit``
    trajectories must all reach steady state within the traced horizon;
    ``max_slo_miss`` bounds the SLO miss rate of every QoS that carries
    an SLO.  A document of another schema, or without ``p_admit``
    tracks, gets no claims past the one it fails.
    """
    schema = series.get("schema")
    claims = judge(
        {f"{figure}/series-schema": ("==", SERIES_SCHEMA)},
        {f"{figure}/series-schema": schema if isinstance(schema, int) else -1},
    )
    if not claims[0].passed:
        return claims
    snapshots = series.get("snapshots")
    if not isinstance(snapshots, int):
        snapshots = 0
    claims += judge(
        {
            f"{figure}/series-snapshots": (">=", 2),
            f"{figure}/series-rnl-tracks": (">=", 1),
            f"{figure}/series-p-admit-tracks": (">=", 1),
        },
        {
            f"{figure}/series-snapshots": snapshots,
            f"{figure}/series-rnl-tracks": _size(series.get("rnl")),
            f"{figure}/series-p-admit-tracks": _size(series.get("p_admit")),
        },
    )
    if not claims[-1].passed:
        return claims
    p_admit = series["p_admit"]
    assert isinstance(p_admit, Mapping)
    rollup = per_qos_convergence(_as_tracks(p_admit))
    bounds: Dict[str, Bound] = {}
    measured: Dict[str, float] = {}
    for qos in converge_qos:
        slug = f"{figure}/series-qos{qos}"
        verdict = rollup.get(qos)
        # The share of the level's channels that settled (0: no channel).
        bounds[f"{slug}-converged"] = (">=", 1)
        measured[f"{slug}-converged"] = (
            verdict.converged_channels / verdict.channels
            if verdict is not None and verdict.channels
            else 0
        )
        if verdict is not None:
            bounds[f"{slug}-settled-positive"] = (">", 0)
            bounds[f"{slug}-settled-at-most-1"] = ("<=", 1)
            measured[f"{slug}-settled-positive"] = verdict.settled_value
            measured[f"{slug}-settled-at-most-1"] = verdict.settled_value
    miss_rates = series.get("slo_miss_rate")
    if isinstance(miss_rates, Mapping) and miss_rates:
        misses = [float(m) for m in miss_rates.values()]
        bounds[f"{figure}/series-slo-miss-max"] = ("<=", max_slo_miss)
        bounds[f"{figure}/series-slo-miss-min"] = (">=", 0)
        measured[f"{figure}/series-slo-miss-max"] = max(misses)
        measured[f"{figure}/series-slo-miss-min"] = min(misses)
    return claims + judge(bounds, measured)
