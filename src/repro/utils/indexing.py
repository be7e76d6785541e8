"""Index-array helpers for loop-free work on ragged (list-of-arrays) data."""

from __future__ import annotations

import numpy as np


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``[s, s+1, ..., s+l-1]`` ranges, fully vectorized."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(np.asarray(starts, dtype=np.int64) - shift, lengths) + np.arange(
        total, dtype=np.int64
    )


def concat_ragged(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list of 1-D index arrays: ``(flat, offsets)``.

    ``flat[offsets[i]:offsets[i + 1]]`` is ``arrays[i]`` as int64.
    """
    sizes = np.fromiter((len(a) for a in arrays), dtype=np.int64, count=len(arrays))
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = (
        np.concatenate(arrays).astype(np.int64, copy=False)
        if len(arrays)
        else np.empty(0, dtype=np.int64)
    )
    return flat, offsets


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Ascending unique values of an integer key array.

    ``np.unique`` without ``return_*`` takes a hash-table path that is
    several times slower than sort-and-compare on the heavily duplicated
    block keys of the symbolic phase (26 vs 4 ms for 4e5 keys).
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


SETUP_CHUNK = 1 << 16
"""The fewest values a set-up pass takes per run of :func:`chunks`: on
smaller runs the per-run call overhead outweighs the memory saved."""


def chunks(n: int, budget: int, width: int | np.ndarray = 1) -> list[slice]:
    """Runs of consecutive items ``0 .. n-1``, each run holding at most
    *budget* values, or one item where that alone holds more.

    Item ``i`` holds *width* values, or, when *width* is an array of
    ``n + 1`` ascending offsets (a CSR ``indptr``), the values
    ``width[i]:width[i + 1]``.  A pass that works run by run keeps its
    transients to the size of a run: callers derive *budget* from the
    arrays they walk (a sixteenth of them, say), so how many runs there
    are does not change with the problem size.
    """
    if np.ndim(width) == 0:
        step = max(1, budget // int(width))
        return [slice(c, min(c + step, n)) for c in range(0, n, step)]
    offsets = np.asarray(width)
    out, c = [], 0
    while c < n:
        end = int(np.searchsorted(offsets, offsets[c] + budget, side="right")) - 1
        end = min(max(end, c + 1), n)
        out.append(slice(c, end))
        c = end
    return out
