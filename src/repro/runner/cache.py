"""On-disk JSON result cache for sweep points.

Keyed by ``(experiment, canonical params, seed, code version)`` — the
full identity of a point's computation.  The code version is a hash of
every ``repro`` source file, so editing *any* simulator or driver code
invalidates the whole cache (conservative on purpose: a cheap false
recompute beats a silently stale figure), while param or seed changes
invalidate exactly the points they touch.

Entries are one JSON file each under ``<root>/<experiment>/``, fanned
out by key prefix so directories stay small.  Writes go through a
temp-file rename, so a killed run never leaves a torn entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.runner.point import Point

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Hash of the ``repro`` source tree (cached per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _CODE_VERSION = hasher.hexdigest()[:16]
    return _CODE_VERSION


class ResultCache:
    """Point-level result cache rooted at one directory."""

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, point: Point, code_ver: str) -> Path:
        key = point.cache_key(code_ver)
        return self.root / point.experiment / key[:2] / f"{key}.json"

    def get(self, point: Point, code_ver: str) -> Optional[Dict[str, Any]]:
        """The cached row for this point, or None on miss/corruption.

        Corruption includes an entry that parses as JSON but is not an
        entry — anything other than a dict holding a dict ``row`` — so
        the caller recomputes and overwrites it.
        """
        path = self._path(point, code_ver)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):  # unreadable, not JSON, not text
            entry = None
        row = entry.get("row") if isinstance(entry, dict) else None
        if not isinstance(row, dict):
            self.misses += 1
            return None
        self.hits += 1
        return row

    def put(self, point: Point, code_ver: str, row: Dict[str, Any]) -> None:
        path = self._path(point, code_ver)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "experiment": point.experiment,
            "params": point.params,
            "replicate": point.replicate,
            "seed": point.seed,
            "code_version": code_ver,
            "row": row,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
