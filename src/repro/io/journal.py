"""Durable checkpoint container: versioned, checksummed, atomically written.

The checkpoint/recovery subsystem (DESIGN.md section 10) journals solver
state to disk so a killed process can resume a long nonlinear run.  A
wrong resume is worse than no resume, so the on-disk format is defensive:

- **versioned** — an 8-byte magic + format version header; unknown
  versions are rejected, never guessed at;
- **checksummed** — a SHA-256 digest of the payload is stored in the
  header and verified on load, so a truncated or bit-rotted file raises
  :class:`JournalError` instead of resuming from garbage;
- **atomic** — the file is written to a same-directory temporary and
  ``os.replace``-d into place (after ``fsync``), so a crash *during*
  checkpointing leaves the previous valid checkpoint intact.

The payload itself is an ``npz`` archive (numpy's own portable format)
of named arrays plus one JSON-encoded metadata dict — no pickle, so a
journal can never execute code on load.

One container format, two placements: :func:`encode_record` /
:func:`decode_record` are the format; :func:`write_journal` /
:func:`read_journal` place one record in an atomically replaced file
(the ALM checkpoint), and :class:`repro.io.joblog.JobLog` appends the
same records to one file (the serve queue's job log).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "JournalError", "JOURNAL_VERSION", "HEADER_BYTES",
    "encode_record", "decode_record", "record_length",
    "write_journal", "read_journal",
]

_MAGIC = b"REPROJNL"
JOURNAL_VERSION = 1
_HEADER = struct.Struct("<8sH32sQ")  # magic, version, sha256, payload bytes
HEADER_BYTES = _HEADER.size
_META_KEY = "__meta_json__"


class JournalError(ValueError):
    """A journal file is corrupt, truncated, or of an unknown version."""


def encode_record(arrays: dict[str, np.ndarray], meta: dict | None = None) -> bytes:
    """One self-validating record: header + ``npz`` payload of *arrays*
    and the JSON-safe *meta*.  Written alone into an atomically replaced
    file it is a checkpoint (:func:`write_journal`); appended one after
    another it is a log (:class:`repro.io.joblog.JobLog`)."""
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved for metadata")
    buf = io.BytesIO()
    meta_arr = np.frombuffer(
        json.dumps(meta or {}).encode("utf-8"), dtype=np.uint8
    )
    np.savez(buf, **arrays, **{_META_KEY: meta_arr})
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).digest()
    return _HEADER.pack(_MAGIC, JOURNAL_VERSION, digest, len(payload)) + payload


def _check_header(head: bytes, where: str) -> tuple[bytes, int]:
    """``(sha256, payload bytes)`` a header declares; unknown magic or
    version raises :class:`JournalError`."""
    magic, version, digest, nbytes = _HEADER.unpack_from(head)
    if magic != _MAGIC:
        raise JournalError(
            f"{where}: bad magic {magic!r} (expected {_MAGIC!r}) — "
            "not a repro checkpoint journal"
        )
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"{where}: journal format version {version} is not supported "
            f"(this build reads version {JOURNAL_VERSION})"
        )
    return digest, nbytes


def record_length(head: bytes, where: str = "record") -> int:
    """Bytes the record starting with the header *head* occupies, header
    included — where the next record of a log begins."""
    return HEADER_BYTES + _check_header(head, where)[1]


def decode_record(buf: bytes, where: str = "record") -> tuple[dict[str, np.ndarray], dict]:
    """Validate one record and return ``(arrays, meta)``.

    Raises :class:`JournalError` with a specific message on every way
    *buf* can be bad — missing magic, unknown version, length mismatch
    (truncation), or checksum mismatch (corruption); *where* names the
    source in the message.
    """
    if len(buf) < HEADER_BYTES:
        raise JournalError(
            f"{where}: {len(buf)} bytes is too short to hold a journal header "
            f"({HEADER_BYTES} bytes) — truncated or not a checkpoint file"
        )
    digest, promised = _check_header(buf, where)
    payload = buf[HEADER_BYTES:]
    if len(payload) != promised:
        raise JournalError(
            f"{where}: payload is {len(payload)} bytes but the header "
            f"promises {promised} — file was truncated or appended to"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise JournalError(
            f"{where}: payload checksum mismatch — the file is corrupted; "
            "refusing to resume from it"
        )
    with np.load(io.BytesIO(payload)) as z:
        arrays = {k: z[k] for k in z.files if k != _META_KEY}
        try:
            meta = json.loads(bytes(z[_META_KEY]).decode("utf-8"))
        except (KeyError, json.JSONDecodeError) as exc:
            raise JournalError(f"{where}: metadata block is unreadable: {exc}") from exc
    return arrays, meta


def write_journal(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> Path:
    """Atomically write *arrays* + JSON-safe *meta* to *path*.

    The temporary lives in the destination directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX); readers
    concurrently opening *path* see either the old or the new checkpoint,
    never a partial one.
    """
    path = Path(path)
    record = encode_record(arrays, meta)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unique temporary per writer: a fixed ".tmp" name would let two
    # concurrent writers of the same journal truncate each other's
    # half-written file before the replace.  mkstemp gives each writer
    # its own inode, so the final os.replace is the only point of
    # contention — and that one is atomic.
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(record)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def read_journal(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Load and validate a journal file; returns ``(arrays, meta)`` or
    raises :class:`JournalError` as :func:`decode_record` does."""
    path = Path(path)
    return decode_record(path.read_bytes(), str(path))
