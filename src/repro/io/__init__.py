"""GeoFEM-style file I/O.

GeoFEM works from per-PE *distributed local data* files produced by its
partitioner (paper section 2.1).  This package provides equivalents so
partitions can be saved, inspected and reloaded — the workflow a
downstream user of the real system has — plus the durable checkpoint
journal (:mod:`repro.io.journal`) that the fault-tolerance layer resumes
killed runs from.  The append-only job log of the same records that the
serve queue recovers from is :mod:`repro.io.joblog`; it is imported by
name, not from here, so only a process that serves loads it (it
registers an at-fork hook).
"""

from repro.io.distio import read_local_data, read_local_domain, write_local_data
from repro.io.journal import (
    JOURNAL_VERSION,
    JournalError,
    decode_record,
    encode_record,
    read_journal,
    write_journal,
)

__all__ = [
    "read_local_data",
    "read_local_domain",
    "write_local_data",
    "JournalError",
    "JOURNAL_VERSION",
    "read_journal",
    "write_journal",
    "encode_record",
    "decode_record",
]
