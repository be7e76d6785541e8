"""Append-only job log: the serve queue's durable memory in one file.

``<directory>/jobs.log`` is a sequence of the records of
:mod:`repro.io.journal` (same header, same checksummed ``npz`` payload),
each carrying ``kind`` (``req`` / ``res``) and ``job_id`` in its
metadata.  What a file per record paid per job — create, write, sync,
rename — the log pays per *commit*:

- **group commit** — :meth:`JobLog.commit` encodes any number of
  records, appends them with one write and makes them durable with one
  ``fsync``, under one lock, so concurrent committers interleave whole
  commits and never records;
- **index** — ``job_id -> (offset, length)`` per kind, filled on append
  and rebuilt by one sequential scan on open; a read is one ``pread``
  plus the record's own checksum verification;
- **torn tail vs corruption** — a final record that ends beyond EOF or
  fails validation is what a crash mid-append leaves: the scan truncates
  the file back to the last good record and counts it (it was never
  acknowledged — the sync had not returned).  A bad record with more
  bytes after its declared end is corruption and raises
  :class:`~repro.io.journal.JournalError`, as does an unknown magic or
  version anywhere;
- **retention** — :meth:`JobLog.drop` forgets jobs in the index at once
  and rewrites the file (same-directory temporary, ``fsync``,
  ``os.replace``, directory ``fsync``) only once dead bytes outweigh
  live ones, so the copying stays below the bytes ever appended;
- **one writer** — ``jobs.lock`` is held under ``flock`` for the life of
  the handle and names the holder's pid; a second opener is refused.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import tempfile
import threading
import weakref
from pathlib import Path

import numpy as np

from repro import obs
from repro.io.journal import (
    HEADER_BYTES,
    JournalError,
    decode_record,
    encode_record,
    record_length,
)

__all__ = ["JobLog", "Entry"]

LOG_NAME = "jobs.log"
LOCK_NAME = "jobs.lock"
KINDS = ("req", "res")

Entry = tuple[str, dict[str, np.ndarray], dict]
"""What a commit takes per record: ``(job_id, arrays, meta)``."""


def _sync(fd: int) -> None:
    """The one place the log asks the kernel for durability."""
    os.fsync(fd)


_OPEN_LOGS: "weakref.WeakSet[JobLog]" = weakref.WeakSet()


def _close_inherited_handles() -> None:
    # A forked child (a respawned pool worker) shares the parent's open
    # file descriptions, flock included; kept open, a worker outliving a
    # killed server would keep the directory locked.  No lock is taken:
    # the parent thread that held it does not exist here.
    for log in list(_OPEN_LOGS):
        log._close_fds()


os.register_at_fork(after_in_child=_close_inherited_handles)


class JobLog:
    """The open log of one journal directory (see the module docstring)."""

    def __init__(self, directory: str | Path) -> None:
        self._fd: int | None = None
        self._lock_fd: int | None = None
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / LOG_NAME
        self._lock = threading.Lock()
        self._index: dict[str, dict[str, tuple[int, int]]] = {k: {} for k in KINDS}
        self._size = 0
        self._live = 0
        self._commits = self._syncs = self._torn = 0
        self._compactions = self._compacted_bytes = 0
        if next(self.directory.glob("*.jnl"), None) is not None:
            raise JournalError(
                f"{self.directory}: holds per-job '.jnl' journal files, the "
                f"layout before {LOG_NAME}; this build neither reads nor "
                "converts them — serve from a fresh journal directory"
            )
        try:
            self._take_lock()
            created = not self.path.exists()
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
            if created:
                self._sync_dir()
            self._scan()
        except BaseException:
            self._close_fds()
            raise
        _OPEN_LOGS.add(self)

    # -- open / close ------------------------------------------------------

    def _take_lock(self) -> None:
        fd = os.open(self.directory / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o600)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.pread(fd, 32, 0).decode("ascii", "replace").strip()
            os.close(fd)
            raise JournalError(
                f"{self.directory}: the job log is held by another queue "
                f"(pid {holder or 'unknown'}); one writer per journal directory"
            ) from None
        os.ftruncate(fd, 0)
        os.pwrite(fd, f"{os.getpid()}\n".encode("ascii"), 0)
        self._lock_fd = fd

    def _close_fds(self) -> None:
        for name in ("_fd", "_lock_fd"):
            fd = getattr(self, name)
            if fd is not None:
                setattr(self, name, None)
                os.close(fd)  # closing the lock's last descriptor releases it

    def close(self) -> None:
        """Release the file and the directory lock; idempotent."""
        with self._lock:
            self._close_fds()

    __del__ = _close_fds  # a log nobody closed must not pin its directory

    def _fsync(self, fd: int) -> None:
        with obs.span("journal.sync"):
            _sync(fd)
        self._syncs += 1

    def _sync_dir(self) -> None:
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            self._fsync(fd)
        finally:
            os.close(fd)

    def _scan(self) -> None:
        size = os.fstat(self._fd).st_size
        pos = 0
        with open(self.path, "rb") as fh:
            while pos < size:
                where = f"{self.path} @ byte {pos}"
                head = fh.read(HEADER_BYTES)
                if len(head) < HEADER_BYTES:
                    break
                end = pos + record_length(head, where)
                if end > size:
                    break
                try:
                    _arrays, meta = decode_record(head + fh.read(end - pos - HEADER_BYTES), where)
                except JournalError:
                    if end == size:
                        break
                    raise
                if meta.get("kind") not in KINDS or not isinstance(meta.get("job_id"), str):
                    raise JournalError(f"{where}: a valid record, but not a job log's")
                self._note(meta["kind"], meta["job_id"], pos, end - pos)
                pos = end
        if pos < size:
            # What a crash mid-append leaves; never acknowledged.
            os.ftruncate(self._fd, pos)
            self._fsync(self._fd)
            self._torn += 1
        self._size = pos

    # -- records -----------------------------------------------------------

    def _note(self, kind: str, job_id: str, offset: int, nbytes: int) -> None:
        # pop + insert: a re-recorded id moves to the end (newest) and its
        # earlier record becomes dead bytes
        old = self._index[kind].pop(job_id, None)
        if old is not None:
            self._live -= old[1]
        self._index[kind][job_id] = (offset, nbytes)
        self._live += nbytes

    def commit(self, kind: str, entries: list[Entry]) -> None:
        """Append one *kind* record per entry and return once all of them
        are durable: one write, one sync, whatever ``len(entries)``."""
        with obs.span("journal.commit", kind=kind, records=len(entries)) as sp:
            records = [
                encode_record(arrays, {"kind": kind, "job_id": job_id, **meta})
                for job_id, arrays, meta in entries
            ]
            blob = memoryview(b"".join(records))
            sp.set(bytes=len(blob))
            with self._lock:
                # Written at the tracked end, not O_APPEND: what a failed
                # commit left behind is overwritten by the next one.
                done = 0
                while done < len(blob):
                    done += os.pwrite(self._fd, blob[done:], self._size + done)
                self._fsync(self._fd)
                for (job_id, _arrays, _meta), record in zip(entries, records):
                    self._note(kind, job_id, self._size, len(record))
                    self._size += len(record)
                self._commits += 1

    def has(self, kind: str, job_id: str) -> bool:
        return job_id in self._index[kind]

    def read(self, kind: str, job_id: str) -> tuple[dict[str, np.ndarray], dict]:
        """The newest *kind* record of *job_id*, checksum verified."""
        with self._lock:
            offset, nbytes = self._index[kind][job_id]
            buf = os.pread(self._fd, nbytes, offset)
        return decode_record(buf, f"{self.path} @ byte {offset}")

    def job_ids(self) -> list[str]:
        """Every job with a request on record, in id order."""
        with self._lock:
            return sorted(self._index["req"])

    def finished(self) -> list[tuple[str, int]]:
        """``(job_id, bytes of its records)`` for every job with a result,
        oldest result first."""
        with self._lock:
            req = self._index["req"]
            return [
                (job_id, nbytes + req.get(job_id, (0, 0))[1])
                for job_id, (_offset, nbytes) in self._index["res"].items()
            ]

    # -- retention ---------------------------------------------------------

    def drop(self, job_ids: list[str]) -> None:
        """Forget both records of each job.  They stop being readable at
        once; the file is rewritten without them when the dead bytes
        outweigh the live ones."""
        with self._lock:
            for job_id in job_ids:
                for kind in KINDS:
                    entry = self._index[kind].pop(job_id, None)
                    if entry is not None:
                        self._live -= entry[1]
            if self._size - self._live > self._live:
                self._rewrite()

    def _rewrite(self) -> None:
        live = sorted(
            (offset, nbytes, kind, job_id)
            for kind in KINDS
            for job_id, (offset, nbytes) in self._index[kind].items()
        )
        index: dict[str, dict[str, tuple[int, int]]] = {k: {} for k in KINDS}
        pos = 0
        with obs.span("journal.compact", records=len(live), bytes_before=self._size,
                      bytes_after=self._live):
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=LOG_NAME + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as out:
                    for offset, nbytes, kind, job_id in live:
                        out.write(os.pread(self._fd, nbytes, offset))
                        index[kind][job_id] = (pos, nbytes)
                        pos += nbytes
                    out.flush()
                    self._fsync(out.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
            self._sync_dir()
            os.close(self._fd)
            self._fd = os.open(self.path, os.O_RDWR)
        self._compactions += 1
        self._compacted_bytes += self._size - pos
        self._index, self._size = index, pos

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "records": sum(len(v) for v in self._index.values()),
                "bytes": self._size,
                "live_bytes": self._live,
                "commits": self._commits,
                "syncs": self._syncs,
                "torn_tail_records": self._torn,
                "compactions": self._compactions,
                "compacted_bytes": self._compacted_bytes,
            }
