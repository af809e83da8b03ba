"""Sweep points and deterministic per-point seeding.

A :class:`Point` is one coordinate of an experiment's parameter sweep:
the experiment name, a JSON-serializable parameter mapping, and a
replicate index (for seed ensembles that rerun the same parameters).

The per-point seed is derived by hashing the point's identity, *not*
drawn from any global RNG, so it is independent of execution order:
sharding a sweep across N workers, resuming half of it tomorrow, or
running points one at a time all use the same seed per point and
therefore produce bit-identical rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict


#: One result row of a sweep: what ``run_point`` returns.  Rows round-
#: trip through JSON in the result cache, so values stay heterogeneous.
Row = Dict[str, Any]


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
