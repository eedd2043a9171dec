"""Blocks of independent work, run on the calling thread and one worker thread.

A process has at most one worker thread, started on first use and only where
the process may run on 2 or more CPUs and was not started by a process pool.
``_share_blocks`` runs blocks ``0..count-1`` on the calling thread and on the
worker, each thread taking the next block no thread has claimed. A block
writes only its own part of the output and runs the same operations
whichever thread runs it, so no output depends on which thread ran a block
or on whether a worker exists. The ridge's embedding and scoring blocks
(``classifiers``) are the only blocks run here.

A caller that gets too little time on a CPU while it runs its own blocks
rests the worker for the next calls (``MIN_CPU_SHARE``), and for twice as
many each time the first call after a rest is starved again.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import threading
import time

# When the caller spends less than this share of its own blocks' wall time on
# a CPU, the worker has cost it more than it gave back. With another process
# busy on one of 2 vCPUs, three threads share two CPUs, and a thread waits for
# the interpreter lock while the one holding it is off its CPU: shared calls
# in `pool-2d` cells then took longer than calls on the caller alone, and the
# caller's share fell below 0.75 in most of them; on 2 idle vCPUs, in about
# one judged call in a thousand. The next REST_CALLS calls after such a call
# run on the caller alone, and twice as many after each further such call
# that ends a rest, so under a steady load the rest stays shorter than the
# calls the load has lasted but a call pays for the load ever more rarely. A
# caller that drains for less than MIN_JUDGED_SECONDS is not judged: one
# hand-over of the interpreter lock is a large part of so short a call, and
# such calls tripped the rest on idle vCPUs.
MIN_CPU_SHARE = 0.75
REST_CALLS = 8
MIN_JUDGED_SECONDS = 1e-3


class _Worker:
    """A process's one block worker thread, and how many calls to leave it idle."""

    def __init__(self):
        self.pid = os.getpid()
        self.executor = concurrent.futures.ThreadPoolExecutor(
            1, thread_name_prefix="selftrain-blocks")
        self.rest = 0
        self.next_rest = REST_CALLS  # the rest the next starved call starts


_worker_lock = threading.Lock()
_worker: _Worker | None = None


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_worker() -> _Worker | None:
    """This process's one worker thread, started on first use.

    None, so that blocks run on the calling thread alone, in a process that
    may run on fewer than 2 CPUs and in the processes of a process pool,
    which would otherwise each add a thread on the same CPUs. A worker
    inherited across a fork has no live thread, so a forked process starts
    its own.
    """
    global _worker
    if multiprocessing.parent_process() is not None or _usable_cpus() < 2:
        return None
    with _worker_lock:
        if _worker is None or _worker.pid != os.getpid():
            _worker = _Worker()
        return _worker


def _share_blocks(count: int, runner) -> None:
    """Run blocks ``0..count-1`` on the calling thread and the process's worker.

    ``runner()`` returns one thread's function of a block index, which may
    own buffers. It is called here, on the calling thread, once for each
    thread that takes part, so the buffers come from the caller's malloc
    arena rather than one the worker would keep for itself. Each thread
    runs the next block no thread has claimed until none is left. The first
    exception stops the claiming and is raised here once both threads are
    done. Without a worker, for a single block, or while the worker rests
    (see ``MIN_CPU_SHARE``), the same loop runs on the calling thread alone.
    A block must not share blocks itself: the worker would wait on its own
    queue.
    """
    # under the GIL, each next() of a range iterator hands out a distinct index
    claims = iter(range(count))
    errors = []

    def drain(run):
        try:
            for i in claims:
                run(i)
        except BaseException as exc:  # noqa: BLE001 - raised again in the caller below
            errors.append(exc)
            for _ in claims:  # leave the other thread nothing to claim
                pass

    worker = _block_worker() if count > 1 else None
    if worker is not None:
        with _worker_lock:  # callers on other threads update the rest too
            resting = worker.rest > 0
            worker.rest -= resting
        if resting:
            worker = None
    if worker is None:
        drain(runner())
    else:
        done = worker.executor.submit(drain, runner())
        run = runner()
        wall, cpu = time.perf_counter(), time.thread_time()
        drain(run)
        wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
        # a worker that has not started finds nothing left to claim
        if not done.cancel():
            done.result()
        if wall >= MIN_JUDGED_SECONDS:
            with _worker_lock:
                if cpu < MIN_CPU_SHARE * wall:
                    worker.rest = worker.next_rest
                    worker.next_rest *= 2
                else:
                    worker.next_rest = REST_CALLS
    if errors:
        raise errors[0]
