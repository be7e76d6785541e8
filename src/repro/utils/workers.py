"""Forked command workers: the one worker-process substrate.

The process transport's rank workers
(:mod:`repro.parallel.transport.process_backend`) and the solver
service's pool (:mod:`repro.serve.pool`) are the same thing underneath:
a fixed set of forked children, each of which runs ``setup(i, state)``
once and then one command per message, ``fn(i, state, *args)``, on what
its set-up kept.  :class:`Workers` owns that life — the fork, the
child's hygiene and loop, the driver's pipe ends, replacement and
shutdown — and nothing else: what a command means, how long to wait for
it and what a silent or dead worker costs are the caller's.

A reply is ``(kind, payload, warnings)``: ``("done", value)`` or
``("raised", (exception, traceback text))``, plus the warnings the call
raised, for the driver to issue again.  A worker's death is an EOF on
its pipe, which :meth:`Workers.receive` reports as None.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import pickle
import stat
import threading
import time
import traceback
import warnings
import weakref
from types import SimpleNamespace

from repro import obs

__all__ = ["REAP_GRACE_S", "Workers"]

REAP_GRACE_S = 0.5
"""How long a driver waits for workers to come back to (or leave) their
command loop before it SIGKILLs them."""

_FORK_LOCK = threading.Lock()
"""Serialises forks: the BLAS thread count held around one is
process-wide, and a pool replaces workers from several threads."""


_OPENBLAS_CONTROLS: dict[str, list[tuple]] = {}
"""Each OpenBLAS library's ``(get, set)`` thread-count pairs, by path:
looked up once per process, not once per fork."""


def _openblas_thread_controls() -> list[tuple]:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS loaded
    into this process (numpy and scipy each ship one).  The maps are
    read on every call, because a library can be loaded later."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:  # not Linux: nothing to look the libraries up in
        return []
    controls = []
    for path in sorted(libs):
        if path not in _OPENBLAS_CONTROLS:
            _OPENBLAS_CONTROLS[path] = _library_controls(ctypes.CDLL(path))
        controls += _OPENBLAS_CONTROLS[path]
    return controls


def _library_controls(lib) -> list[tuple]:
    """The ``(get, set)`` thread-count pairs one OpenBLAS exports."""
    controls = []
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
    return controls


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a forked worker inherited except its own pipe
    end *keep*: the other workers' pipes, and its own pipe's driver end,
    so that the driver's death is an EOF on the worker's; and a server's
    client connections and listening socket, so that a client sees EOF
    when its handler closes the connection.  Plain pipes and files (the
    shared-memory file, multiprocessing's resource tracker) stay."""
    try:
        fds = [int(f) for f in os.listdir("/proc/self/fd")]
    except OSError:  # no /proc (non-Linux): nothing portable to do
        return
    for fd in fds:
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _call(fn, i: int, state, args) -> tuple:
    """Run ``fn(i, state, *args)`` in worker *i*; its reply."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # the driver's filters decide
        try:
            message = ("done", fn(i, state, *args))
        except Exception as exc:  # boundary: the driver decides what it means
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # would not survive the pipe as itself
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            message = ("raised", (exc, traceback.format_exc()))
    return (*message, [(str(w.message), w.category) for w in caught])


def _serve(i: int, setup, conn) -> None:
    """Worker *i*'s life: its set-up, then one command per message until
    the driver closes the pipe (or dies)."""
    _close_inherited_sockets(conn.fileno())
    obs.disable()  # the session it inherited belongs to the driver
    state = SimpleNamespace()
    reply = _call(setup, i, state, ())
    while True:
        try:
            conn.send(reply)
            fn, args = conn.recv()
        except (EOFError, OSError):
            return
        reply = _call(fn, i, state, args)


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------


def _stop(owner: int, slots: list) -> None:
    """Close every worker's pipe (it leaves its loop), join, SIGKILL what
    will not leave.  A weakref finalizer: never runs in a worker."""
    if os.getpid() != owner:
        return
    live = [slot for slot in slots if slot is not None]
    for _, conn in live:
        conn.close()
    end = time.monotonic() + REAP_GRACE_S
    for proc, _ in live:
        proc.join(timeout=max(0.0, end - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join()


class Workers:
    """*n* forked command workers, addressed by index, named
    ``<name><i>``.

    Worker *i* runs ``setup(i, state)`` when it is forked — *setup* is
    inherited through ``fork``, so it may be a closure — and keeps
    *state* for its life.  Commands are module-level functions (they
    cross the pipe by reference).  Nothing is forked until
    :meth:`replace`.  Workers dropped without :meth:`close` are still
    stopped when this object is collected.
    """

    def __init__(self, n: int, setup, *, name: str) -> None:
        self._ctx = mp.get_context("fork")  # workers inherit the driver's state
        self.setup, self.name = setup, name
        # per worker: (process, driver end of its pipe); None before its fork
        self._slots: list = [None] * n
        self._stop = weakref.finalize(self, _stop, os.getpid(), self._slots)

    @property
    def closed(self) -> bool:
        return not self._stop.alive

    def process(self, i: int):
        """Worker *i*'s :class:`multiprocessing.Process`."""
        return self._slots[i][0]

    def conn(self, i: int):
        """The driver's end of worker *i*'s pipe (to wait on)."""
        return self._slots[i][1]

    def send(self, i: int, fn, *args) -> None:
        """Have worker *i* run ``fn(i, state, *args)``.  A worker that
        died cannot take it: :meth:`receive` reports its EOF."""
        try:
            self._slots[i][1].send((fn, args))
        except OSError:
            pass

    def receive(self, i: int):
        """Worker *i*'s next reply (blocking), or None: it died, and has
        been joined."""
        proc, conn = self._slots[i]
        try:
            return conn.recv()
        except (EOFError, OSError):
            proc.join()
            return None

    def replace(self, ids) -> list:
        """Fork a worker for each of *ids*, SIGKILLing and joining the one
        it had; returns their set-up replies, by id."""
        ids = list(ids)
        self.fork(ids)
        return [self.receive(i) for i in ids]

    def fork(self, ids) -> None:
        """:meth:`replace` without waiting for the set-up replies: each is
        the first :meth:`receive` of its worker."""
        for i in ids:
            if self._slots[i] is not None:
                proc, conn = self._slots[i]
                proc.kill()
                proc.join()
                conn.close()
        # A worker inherits a single-threaded BLAS: a thread pool inside a
        # one-CPU rank spins against itself (10x slower on a 44k-DOF
        # solve), and limiting it *in* the child spawns a pool thread that
        # spins there for 0.1 s.
        with _FORK_LOCK:
            blas = _openblas_thread_controls()
            threads = [get() for get, _ in blas]
            for _, set_threads in blas:
                set_threads(1)
            try:
                for i in ids:
                    self._slots[i] = self._fork(i)
            finally:
                for (_, set_threads), n in zip(blas, threads):
                    set_threads(n)

    def _fork(self, i: int) -> tuple:
        driver_end, worker_end = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_serve, args=(i, self.setup, worker_end),
            name=f"{self.name}{i}", daemon=True,
        )
        proc.start()
        # the worker holds the only copy of its end now: its death is an
        # EOF on the driver's
        worker_end.close()
        return proc, driver_end

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        self._stop()
