"""Run independent tasks on every usable CPU in forked worker processes.

``run_tasks`` is mcni's one way of spreading work over CPUs. The
experiment drivers give it their fits, ``gpcheck`` its covariance chunks
and ``mc_predict`` its blocks of Monte Carlo passes. mcni starts no thread,
so a child never inherits a lock that an mcni thread held; OpenBLAS stops
its own thread pool around a fork.

Calls do not nest across processes: ``run_tasks`` called from inside a
task (one that the caller runs itself, or one in a forked child) runs its
own tasks in that process and forks nothing. So a fit that scores itself
with ``mc_predict`` never forks from inside a fork, and the process count
stays at one per usable CPU. How many processes a call uses is decided here
alone: callers get only results, and ``most_processes`` records the most
any call in this process has used since it was last set to 1.
"""

from __future__ import annotations

import fcntl
import math
import os
import pickle
import signal

# True while this process runs tasks: in a forked child for its whole life,
# in the caller while its own share runs
_in_task = False
# the most worker processes any run_tasks call in this process has used
most_processes = 1


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def run_tasks(tasks: list) -> list:
    """Call every task; return their results in task order. The call runs
    on min(usable CPUs, len(tasks)) worker processes, or 1 when called from
    inside a running task, and raises ``most_processes`` to that count.

    The calling process is one worker; the others are ``os.fork()``
    children. The workers share a queue: the task indices, written in order
    into a pipe before the first fork, from which each worker reads the next
    index whenever it is free (a read that small is atomic). A worker stops
    at its first exception. A child sends its results, or that exception,
    pickled through a pipe of its own and always leaves through
    ``os._exit``, so it never returns into the caller's stack nor flushes
    the caller's buffers. Every child is reaped before anything is raised;
    then the exception of the lowest-numbered failed task is raised with
    its type. A child that ends without a result (a signal, say, or the OOM
    killer) counts as a RuntimeError naming how it ended. If the caller
    itself is interrupted, the children are killed.
    """
    global most_processes
    n = min(1 if _in_task else usable_cpus(), len(tasks))
    most_processes = max(most_processes, n)
    queue, feed = os.pipe()
    # one queue entry per task, or per block of tasks when the pipe is too
    # small to take them all without blocking
    block = max(1, -(-len(tasks) // (fcntl.fcntl(feed, fcntl.F_GETPIPE_SZ) // 4)))
    os.write(feed, b"".join(i.to_bytes(4, "little")
                            for i in range(0, len(tasks), block)))
    os.close(feed)
    pipes: dict[int, int] = {}      # child pid -> read end of its result pipe
    blobs: dict[int, bytes] = {}
    statuses: dict[int, int] = {}
    try:
        for _ in range(n - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(tasks, queue, block, write_end)
            os.close(write_end)
            pipes[pid] = read_end
        shares = [_share(tasks, queue, block)]
        for pid, read_end in pipes.items():
            with open(read_end, "rb", closefd=False) as fh:
                blobs[pid] = fh.read()
    except BaseException:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, read_end in pipes.items():
            os.close(read_end)
            statuses[pid] = os.waitpid(pid, 0)[1]

    for pid, blob in blobs.items():
        if blob:
            shares.append(pickle.loads(blob))
        else:
            code = os.waitstatus_to_exitcode(statuses[pid])
            how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                   else f"exited with code {code}")
            shares.append(([], (math.inf, RuntimeError(
                f"worker process {pid} {how} without sending its results"))))
    results = [None] * len(tasks)
    failures = []
    for done, failure in shares:
        for index, result in done:
            results[index] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _share(tasks: list, queue: int, block: int) -> tuple[list, tuple | None]:
    """Run tasks from the queue until it is empty or one raises: the
    (index, result) pairs, and (index, exception) for the task that raised,
    if one did."""
    global _in_task
    outer, _in_task = _in_task, True
    done = []
    try:
        while entry := os.read(queue, 4):
            start = int.from_bytes(entry, "little")
            for index in range(start, min(start + block, len(tasks))):
                try:
                    done.append((index, tasks[index]()))
                except Exception as exc:
                    return done, (index, exc)
        return done, None
    finally:
        _in_task = outer


def _child(tasks: list, queue: int, block: int, write_end: int):
    """A forked worker's whole life: run its share, send it, ``os._exit``."""
    code = 1
    try:
        share = _share(tasks, queue, block)
        try:
            blob = pickle.dumps(share)
        except Exception as exc:
            blob = pickle.dumps(([], (math.inf, RuntimeError(
                f"worker process could not send its results: {exc!r}"))))
        with open(write_end, "wb") as fh:
            fh.write(blob)
        code = 0
    finally:
        os._exit(code)
