"""The forked command workers both the process transport's ranks and the
serve pool run on (:mod:`repro.utils.workers`): what a worker inherits,
what forking does to the driver's BLAS, and what a dropped pool leaves
behind."""

import ctypes
import gc
import multiprocessing as mp
import os
import socket
import stat
import threading

import pytest

from repro.serve import SolverSession, WorkerPool
from repro.utils import workers as workers_module
from repro.utils.workers import Workers, _openblas_thread_controls


def _nothing(i, state):
    return None


def _sockets(i, state) -> list[int]:
    """The socket descriptors this worker holds."""
    held = []
    for name in os.listdir("/proc/self/fd"):
        try:
            if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                held.append(int(name))
        except OSError:  # the listing's own descriptor, closed by now
            continue
    return held


def _blas_threads(i, state) -> list[int]:
    return [get() for get, _ in _openblas_thread_controls()]


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("this exception does not pickle")


def _raise_unpicklable(i, state):
    raise _Unpicklable("kept as text")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc here")
def test_a_worker_holds_no_socket_but_its_own_pipe():
    """Neither a sibling's pipe, nor its own pipe's driver end (so the
    driver's death is an EOF on the worker's), nor a socket the driver
    opened before forking it (so a client sees EOF when the server
    closes its connection)."""
    workers = Workers(2, _nothing, name="repro-test-worker")
    try:
        assert workers.replace(range(2)) == [("done", None, [])] * 2
        client, server = socket.socketpair()
        assert workers.replace([0]) == [("done", None, [])]
        for i in range(2):
            workers.send(i, _sockets)
            kind, held, _ = workers.receive(i)
            assert kind == "done" and len(held) == 1
        server.close()  # no worker holds a copy: the client sees EOF
        client.settimeout(10.0)
        assert client.recv(1) == b""
        client.close()
    finally:
        workers.close()


def test_an_exception_that_cannot_cross_the_pipe_arrives_as_text():
    workers = Workers(1, _nothing, name="repro-test-worker")
    try:
        workers.replace([0])
        workers.send(0, _raise_unpicklable)
        kind, (exc, where), _ = workers.receive(0)
        assert kind == "raised" and type(exc) is RuntimeError
        assert str(exc) == "_Unpicklable: kept as text"
        assert "_raise_unpicklable" in where
        workers.send(0, _nothing)  # and the worker serves on
        assert workers.receive(0) == ("done", None, [])
    finally:
        workers.close()


def test_concurrent_replacements_keep_the_drivers_blas_threads():
    """Every fork holds BLAS at one thread in the driver; two threads
    replacing workers at once must not leave the driver there."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    mine = [get() for get, _ in controls]
    workers = Workers(2, _nothing, name="repro-test-worker")
    try:
        workers.replace(range(2))

        def churn(i):
            for _ in range(5):
                workers.replace([i])

        threads = [threading.Thread(target=churn, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not any(t.is_alive() for t in threads)
        assert [get() for get, _ in controls] == mine
        for i in range(2):
            workers.send(i, _blas_threads)
            kind, counts, _ = workers.receive(i)
            assert kind == "done" and counts == [1] * len(controls)
    finally:
        workers.close()
        for (_, set_threads), n in zip(controls, before):
            set_threads(n)


def test_forks_look_each_blas_library_up_once(monkeypatch):
    """The thread-count controls are resolved once per library and
    process: a second fork reads the maps but loads no library again."""
    if not _openblas_thread_controls():
        pytest.skip("no OpenBLAS loaded")
    loads: dict[str, int] = {}
    real_cdll = ctypes.CDLL

    def counting_cdll(path, *args, **kwargs):
        loads[path] = loads.get(path, 0) + 1
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(workers_module, "_OPENBLAS_CONTROLS", {}, raising=False)
    monkeypatch.setattr(ctypes, "CDLL", counting_cdll)
    workers = Workers(1, _nothing, name="repro-test-worker")
    try:
        for _ in range(2):
            assert workers.replace([0]) == [("done", None, [])]
    finally:
        workers.close()
    assert loads and all(n == 1 for n in loads.values()), loads


def test_a_dropped_pool_leaves_no_live_worker():
    pool = WorkerPool(SolverSession(), workers=2)
    procs = [
        p for p in mp.active_children() if p.name.startswith("repro-serve-worker")
    ]
    assert len(procs) == 2
    del pool
    gc.collect()
    assert not any(p.is_alive() for p in procs)
