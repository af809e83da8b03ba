"""Structured result store: one JSON document per sweep run.

Layout: ``<root>/<experiment>/<run_id>.json``.  The document records
the sweep's identity (experiment, profile, code version), every point's
params/seed/row/digest plus where the row came from (computed, cache,
or a resumed earlier run), the whole-run determinism digest, and the
shape-check verdict.  ``--resume RUN_ID`` reloads a document and skips
every point whose identity still matches.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Union


class ResultStore:
    """Run-level result documents rooted at one directory."""

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = Path(root)

    def new_run_id(self, experiment: str) -> str:
        """Timestamped, collision-avoiding run id."""
        stamp = time.strftime("%Y%m%d-%H%M%S")
        base = f"{stamp}-{os.getpid() % 100000:05d}"
        run_id, n = base, 1
        while self.path(experiment, run_id).exists():
            run_id = f"{base}-{n}"
            n += 1
        return run_id

    def path(self, experiment: str, run_id: str) -> Path:
        return self.root / experiment / f"{run_id}.json"

    def write(self, doc: Dict[str, Any]) -> Path:
        path = self.path(doc["experiment"], doc["run_id"])
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    def load(self, experiment: str, run_id: str) -> Dict[str, Any]:
        path = self.path(experiment, run_id)
        try:
            with open(path) as fh:
                doc: Dict[str, Any] = json.load(fh)
                return doc
        except OSError as exc:
            raise FileNotFoundError(
                f"no stored run {run_id!r} for {experiment!r} "
                f"(looked at {path}); available: "
                f"{', '.join(self.list_runs(experiment)) or 'none'}"
            ) from exc

    def find(self, run_id: str) -> Dict[str, Any]:
        """Load a run by id alone, scanning every experiment directory.

        The report CLI takes a bare run id; ids are timestamped so
        collisions across experiments are vanishingly rare — if one
        happens anyway, the match is ambiguous and raised as such.
        """
        matches = [
            exp_dir.name
            for exp_dir in sorted(self.root.iterdir())
            if exp_dir.is_dir() and (exp_dir / f"{run_id}.json").is_file()
        ] if self.root.is_dir() else []
        if not matches:
            raise FileNotFoundError(
                f"no stored run {run_id!r} under {self.root}; "
                "pass --results-dir if the run lives elsewhere"
            )
        if len(matches) > 1:
            raise FileNotFoundError(
                f"run id {run_id!r} is ambiguous: found under "
                f"{', '.join(matches)}"
            )
        return self.load(matches[0], run_id)

    def list_runs(self, experiment: str) -> List[str]:
        exp_dir = self.root / experiment
        if not exp_dir.is_dir():
            return []
        return sorted(p.stem for p in exp_dir.glob("*.json"))
