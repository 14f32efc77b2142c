"""Content-hash cache for per-file dataflow summaries.

A summary is a pure function of (source bytes, module name, analysis
schema), so the cache key is a hash of exactly those three things.
Change a file — or bump :data:`~repro.lint.dataflow.model.
DATAFLOW_SCHEMA` — and the key changes; stale summaries are never
loaded.  Writes are atomic (temp file + ``os.replace``, the same
pattern as :func:`repro.obs.snapshot.write_snapshot`) so an interrupted
lint never leaves a truncated entry; unreadable entries count as misses
and are overwritten.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.lint.dataflow.model import DATAFLOW_SCHEMA, FileSummary

#: Default cache directory name, created under the repo root.
DEFAULT_CACHE_DIR_NAME = ".repro-lint-cache"


def summary_key(source: str, module: str, path: str) -> str:
    """Content address of one file's summary.

    The display path is part of the key (findings embed it), so two
    identical files at different paths never share an entry; paths are
    repo-relative, so moving the checkout does not invalidate anything.
    """
    digest = hashlib.sha256()
    digest.update(
        f"schema={DATAFLOW_SCHEMA}\nmodule={module}\npath={path}\n".encode()
    )
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


class SummaryCache:
    """On-disk summary store rooted at ``directory``.

    ``directory=None`` disables persistence: every lookup is a miss and
    writes are dropped (used by tests that need a guaranteed cold run).
    """

    def __init__(self, directory: Optional[os.PathLike]) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        # Two-level fan-out keeps directories small on big trees.
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[FileSummary]:
        if self.directory is None:
            self.misses += 1
            return None
        try:
            payload = json.loads(self._path(key).read_text(encoding="utf-8"))
            summary = FileSummary.from_json(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        if summary.schema != DATAFLOW_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def put(self, key: str, summary: FileSummary) -> None:
        if self.directory is None:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        encoded = json.dumps(summary.to_json(), separators=(",", ":"))
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- accounting --------------------------------------------------------
    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests
