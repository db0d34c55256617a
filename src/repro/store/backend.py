"""Crash-safe, parallel-safe file backend for simulation results.

Layout under the store directory::

    rows.jsonl    append-only; one canonical-JSON row per stored result
    index.json    derived key -> byte-offset map (atomic temp+replace)
    .lock         flock target serializing appends and rewrites

Design rules (the reasons the store survives concurrent
``multiprocessing`` workers and crashes):

* ``rows.jsonl`` is the single source of truth.  Every append happens
  under an exclusive ``flock`` and writes one complete line followed by
  ``flush`` + ``fsync``, so a reader never sees a torn row and two
  writers never interleave.  Inside the lock the writer first re-scans
  the tail for rows other processes appended — that re-check is the
  cross-process dedup point.
* ``index.json`` is a pure cache, a checkpoint of the in-memory index.
  It is written via :func:`atomic_write` (temp file +
  :func:`os.replace`, no fsync) by :meth:`ResultStore.put` only once
  the rows past its high-water mark reach 1/:data:`_CHECKPOINT_SHARE`
  of ``rows.jsonl`` — so a put costs the same in a store of any size.
  Rows past the mark are re-scanned on open, and any inconsistency —
  missing file, short file, offset pointing at the wrong key — triggers
  a full rebuild from ``rows.jsonl``.
* Readers keep an in-memory index plus a high-water byte offset; a
  lookup miss re-scans only the bytes appended since, so sharing one
  store between long-lived processes stays cheap.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.simulator.engine import ENGINE_VERSION
from repro.store.keys import canonical_json

try:  # POSIX; on platforms without fcntl the store degrades to no locking
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

_SCHEMA_VERSION = 1

#: :meth:`ResultStore.put` rewrites ``index.json`` once the bytes of
#: ``rows.jsonl`` past its ``scanned`` mark reach 1/this of the file:
#: rewrites grow geometrically with the store, so their cost per put is
#: constant, and any reopen re-scans at most that share.
_CHECKPOINT_SHARE = 8

#: Environment variable overriding the default store location.
STORE_DIR_ENV = "REPRO_STORE_DIR"
DEFAULT_STORE_DIR = ".repro-store"


def atomic_write(path: Path, data: str | bytes, *, fsync: bool = False) -> None:
    """Replace *path* with *data*: a reader sees the old file or the new
    one, never a torn mix.

    *data* goes to a temp file beside *path* that :func:`os.replace`
    then moves over it (atomic on POSIX); a write that raises leaves
    *path* untouched and removes the temp file.  *fsync* flushes the
    temp file to disk before the replace — for rewrites of a source of
    truth, not of a cache that rebuilds itself.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.stem}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as sink:
            sink.write(data)
            if fsync:
                sink.flush()
                os.fsync(sink.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def default_store_dir() -> Path:
    """``$REPRO_STORE_DIR`` if set, else ``.repro-store`` in the cwd."""
    return Path(os.environ.get(STORE_DIR_ENV, DEFAULT_STORE_DIR))


def store_dir_of(store) -> str | None:
    """The directory behind a store argument, as a picklable string.

    Accepts a :class:`ResultStore`, a path, or ``None``; the experiment
    drivers use this to ship the store location to pool workers, which
    reopen it locally.
    """
    if store is None:
        return None
    if isinstance(store, ResultStore):
        return str(store.root)
    return str(store)


class ResultStore:
    """Content-addressed result store shared by all execution paths.

    Parameters
    ----------
    root:
        Store directory (created if missing).  ``None`` uses
        :func:`default_store_dir`.
    fsync:
        Fsync every appended row (default).  Tests on tmpfs may disable
        it for speed; production writers should leave it on.
    """

    def __init__(self, root: Path | str | None = None, *, fsync: bool = True) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self.rows_path = self.root / "rows.jsonl"
        self.index_path = self.root / "index.json"
        self.lock_path = self.root / ".lock"
        self._fsync = fsync
        #: key -> [byte offset, engine_version, algorithm token]
        self._index: dict[str, list] = {}
        self._scanned = 0  # bytes of rows.jsonl already folded into _index
        self._indexed = 0  # index.json's ``scanned``, as last read or written
        self._load_index_file()
        self._refresh()

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Exclusive inter-process lock around appends and rewrites."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        with open(self.lock_path, "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock, fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _load_index_file(self) -> None:
        try:
            payload = json.loads(self.index_path.read_text())
            if payload.get("schema") != _SCHEMA_VERSION:
                raise ValueError("schema mismatch")
            self._index = {k: list(v) for k, v in payload["keys"].items()}
            self._scanned = int(payload["scanned"])
        except (OSError, ValueError, KeyError, TypeError):
            self._index = {}
            self._scanned = 0
        self._indexed = self._scanned

    def _write_index_file(self) -> None:
        payload = {
            "kind": "store-index",
            "schema": _SCHEMA_VERSION,
            "scanned": self._scanned,
            "keys": self._index,
        }
        atomic_write(self.index_path, json.dumps(payload))
        self._indexed = self._scanned

    def _refresh(self) -> None:
        """Fold rows appended since the last scan into the index."""
        try:
            size = self.rows_path.stat().st_size
        except OSError:
            size = 0
        if size < self._scanned:  # rows.jsonl was rewritten (gc): rebuild
            self._index = {}
            self._scanned = 0
        if size == self._scanned:
            return
        with open(self.rows_path, "rb") as src:
            src.seek(self._scanned)
            offset = self._scanned
            for raw in src:
                if not raw.endswith(b"\n"):
                    break  # torn tail from a crashed writer: ignore
                try:
                    row = json.loads(raw)
                    key = row["key"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    offset += len(raw)
                    continue  # corrupt row: skip it, keep scanning
                self._index.setdefault(
                    key,
                    [offset, row.get("engine_version"), row.get("algorithm", "")],
                )
                offset += len(raw)
            self._scanned = offset

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        self._refresh()
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        if key not in self._index:
            self._refresh()
        return key in self._index

    def keys(self) -> list[str]:
        self._refresh()
        return list(self._index)

    def _read_row_at(self, offset: int) -> dict | None:
        try:
            with open(self.rows_path, "rb") as src:
                src.seek(offset)
                return json.loads(src.readline())
        except (OSError, json.JSONDecodeError):
            return None

    def get_row(self, key: str) -> dict | None:
        """The full stored row for *key* (metadata + payload), or None."""
        if key not in self._index:
            self._refresh()
            if key not in self._index:
                return None
        row = self._read_row_at(self._index[key][0])
        if row is None or row.get("key") != key:
            # Stale offset (another process rewrote the file between our
            # refresh and the read): rebuild the index and retry once.
            self._index = {}
            self._scanned = 0
            self._refresh()
            if key not in self._index:
                return None
            row = self._read_row_at(self._index[key][0])
            if row is None or row.get("key") != key:
                return None
        return row

    def get(self, key: str) -> dict | None:
        """The stored payload for *key*, or None."""
        row = self.get_row(key)
        return row["payload"] if row is not None else None

    def get_rows(self, keys: Iterable[str]) -> dict[str, dict]:
        """``{key: full stored row}`` for those of *keys* the store holds.

        One batched read: every wanted row is sought through a single
        file handle, in file order, and decoded once.  A row whose offset
        is stale is read again through :meth:`get_row`, which rebuilds
        the index first.
        """
        wanted = set(keys)
        if not wanted.issubset(self._index):
            self._refresh()
        located = sorted(
            (self._index[key][0], key) for key in wanted if key in self._index
        )
        rows: dict[str, dict] = {}
        stale = []
        try:
            with open(self.rows_path, "rb") as src:
                for offset, key in located:
                    src.seek(offset)
                    try:
                        row = json.loads(src.readline())
                    except json.JSONDecodeError:
                        row = None
                    if row is not None and row.get("key") == key:
                        rows[key] = row
                    else:
                        stale.append(key)
        except OSError:
            stale = [key for _, key in located]
        for key in stale:
            row = self.get_row(key)
            if row is not None:
                rows[key] = row
        return rows

    def rows(self) -> Iterator[dict]:
        """All stored rows, deduplicated, in file order."""
        self._refresh()
        seen: set[str] = set()
        try:
            src = open(self.rows_path, "rb")
        except OSError:
            return
        with src:
            for raw in src:
                if not raw.endswith(b"\n"):
                    break
                try:
                    row = json.loads(raw)
                    key = row["key"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue
                if key in seen:
                    continue
                seen.add(key)
                yield row

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        payload: dict,
        *,
        engine_version: int = ENGINE_VERSION,
        algorithm: str = "",
    ) -> bool:
        """Store *payload* under *key*; returns False if already present.

        Concurrent workers racing on the same key are serialized by the
        store lock: the loser sees the winner's row during the in-lock
        tail re-scan and skips its own append.
        """
        if key in self:
            return False
        row = {
            "kind": "store-row",
            "schema": _SCHEMA_VERSION,
            "key": key,
            "engine_version": engine_version,
            "algorithm": algorithm,
            "payload": payload,
        }
        line = (canonical_json(row) + "\n").encode("utf-8")
        with self._locked():
            self._refresh()  # pick up rows other processes just appended
            if key in self._index:
                return False
            with open(self.rows_path, "ab") as sink:
                offset = sink.tell()
                sink.write(line)
                sink.flush()
                if self._fsync:
                    os.fsync(sink.fileno())
            self._index[key] = [offset, engine_version, algorithm]
            self._scanned = offset + len(line)
            unindexed = self._scanned - self._indexed
            if unindexed * _CHECKPOINT_SHARE >= self._scanned:
                self._write_index_file()
        return True

    # ------------------------------------------------------------------
    # Management verbs
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Row counts by engine version and algorithm, plus file size."""
        self._refresh()
        by_version: Counter = Counter()
        by_algorithm: Counter = Counter()
        for _, version, algorithm in self._index.values():
            by_version[str(version)] += 1
            by_algorithm[algorithm or "?"] += 1
        try:
            file_bytes = self.rows_path.stat().st_size
        except OSError:
            file_bytes = 0
        return {
            "root": str(self.root),
            "rows": len(self._index),
            "engine_version": ENGINE_VERSION,
            "by_engine_version": dict(sorted(by_version.items())),
            "by_algorithm": dict(sorted(by_algorithm.items())),
            "file_bytes": file_bytes,
        }

    def gc(self, *, engine_version: int = ENGINE_VERSION) -> int:
        """Drop every row whose engine version differs from the given one.

        Rewrites ``rows.jsonl`` (deduplicated, via temp + atomic replace)
        under the store lock; returns the number of evicted rows.
        """
        with self._locked():
            self._refresh()
            before = len(self._index)
            kept = [
                row for row in self.rows()
                if row.get("engine_version") == engine_version
            ]
            atomic_write(
                self.rows_path,
                b"".join(
                    (canonical_json(row) + "\n").encode("utf-8")
                    for row in kept
                ),
                fsync=True,
            )
            self._index = {}
            self._scanned = 0
            self._refresh()
            self._write_index_file()
            return before - len(self._index)

    def export(self, dest: Path | str) -> int:
        """Write all rows, deduplicated and key-sorted, to *dest*.

        The export is self-contained canonical JSONL — feed it to another
        store directory as its ``rows.jsonl`` to merge or seed a cache.
        """
        dest = Path(dest)
        dest.parent.mkdir(parents=True, exist_ok=True)
        rows = sorted(self.rows(), key=lambda row: row["key"])
        with open(dest, "w") as sink:
            for row in rows:
                sink.write(canonical_json(row) + "\n")
        return len(rows)

    def clear(self) -> None:
        """Drop every row (testing aid)."""
        with self._locked():
            self.rows_path.unlink(missing_ok=True)
            self._index = {}
            self._scanned = 0
            self._write_index_file()
