"""Durable records: the checkpoint journal (:mod:`repro.io.journal`)
that the fault-tolerance layer resumes killed runs from.

The append-only job log of the same records that the serve queue
recovers from is :mod:`repro.io.joblog`; it is imported by name, not
from here, so only a process that serves loads it (it registers an
at-fork hook).
"""

from repro.io.journal import (
    JOURNAL_VERSION,
    JournalError,
    decode_record,
    encode_record,
    read_journal,
    write_journal,
)

__all__ = [
    "JournalError",
    "JOURNAL_VERSION",
    "read_journal",
    "write_journal",
    "encode_record",
    "decode_record",
]
