"""Sweep points and deterministic per-point seeding.

A :class:`Point` is one coordinate of an experiment's parameter sweep:
the experiment name, a JSON-serializable parameter mapping, and a
replicate index (for seed ensembles that rerun the same parameters).

The per-point seed is derived by hashing the point's identity, *not*
drawn from any global RNG, so it is independent of execution order:
sharding a sweep across N workers, resuming half of it tomorrow, or
running points one at a time all use the same seed per point and
therefore produce bit-identical rows.

A :class:`Claim` is one verdict a driver's ``check`` returns: a paper
claim's measured value on one replicate's rows against its bound.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple


#: One result row of a sweep: what ``run_point`` returns.  Rows round-
#: trip through JSON in the result cache, so values stay heterogeneous.
Row = Dict[str, Any]
#: One replicate's rows, in sweep order: what a driver's ``check`` judges.
Rows = Sequence[Row]

#: A claim's bound in one profile: a comparison and its threshold, as
#: in ``("<", 1.5)`` — the measured value must be below 1.5.
Bound = Tuple[str, float]

_COMPARE: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


class Claim(NamedTuple):
    """One paper claim judged on one replicate's rows.

    ``id`` is the ``figNN/<slug>`` that EXPERIMENTS.md lists under its
    figure; ``bound`` reads as the comparison the measured value had to
    pass, e.g. ``"< 1.5"``.  A NaN measurement never passes.
    """

    id: str
    measured: float
    bound: str
    passed: bool


def judge(bounds: Mapping[str, Bound], measured: Mapping[str, float]) -> List[Claim]:
    """One :class:`Claim` per bounded id, in ``measured`` order.

    ``measured`` holds every claim a driver measures on its rows; only
    the ids ``bounds`` names are judged, so a claim whose point a
    profile lacks (measured as NaN there) is simply not judged in it.
    """
    unknown = set(bounds) - set(measured)
    if unknown:
        raise KeyError(f"bounds name unmeasured claims: {sorted(unknown)}")
    claims = []
    for claim_id, value in measured.items():
        if claim_id in bounds:
            op, limit = bounds[claim_id]
            value = float(value)
            passed = _COMPARE[op](value, limit)
            claims.append(Claim(claim_id, value, f"{op} {limit:.4g}", passed))
    return claims


def canonical_json(value: Any) -> str:
    """Key-sorted, whitespace-free JSON — the canonical param encoding."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Point:
    """One sweep coordinate of one experiment.

    A point's identity is fixed at construction: the canonical encoding
    of ``params`` (serialised once, which also validates them) and the
    seed hashed from it.  ``params`` is part of that identity — treat it
    as read-only.
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    replicate: int = 0
    #: Deterministic seed from ``(experiment, params, replicate)``.
    seed: int = field(init=False, repr=False, compare=False)
    _canonical: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            canonical = canonical_json(self.params)
        except (TypeError, ValueError) as exc:
            raise TypeError(
                f"{self.experiment}: point params must be JSON-serializable "
                f"({exc})"
            ) from exc
        blob = f"{self.experiment}|{canonical}|{self.replicate}"
        digest = hashlib.sha256(blob.encode()).digest()
        # Frozen: derived fields go in through object.__setattr__.
        object.__setattr__(self, "_canonical", canonical)
        # Positive 31-bit seed: every RNG in the tree accepts it.
        object.__setattr__(
            self, "seed", (int.from_bytes(digest[:8], "big") % ((1 << 31) - 1)) + 1
        )

    def canonical_params(self) -> str:
        return self._canonical

    def cache_key(self, code_ver: str) -> str:
        """Cache identity: params + seed + the code that interprets them."""
        blob = (
            f"{self.experiment}|{self._canonical}|"
            f"{self.replicate}|{self.seed}|{code_ver}"
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for logs and tables."""
        params = self.canonical_params()
        if len(params) > 48:
            params = params[:45] + "..."
        tag = f"{params}" if self.replicate == 0 else f"{params} r{self.replicate}"
        return tag
