"""Plumbing shared by the forked workers of the sampler and the tree layer.

A worker is a forked daemon process that talks to its parent over one
``multiprocessing`` pipe: small control messages are pickled, and arrays
travel as their raw bytes, whose shape the reader already knows.  An
exception raised in a worker is sent to the parent and raised again
there.  A pipe that ends or breaks, or a fork that fails, is the worker
layer's ``RuntimeError``, not an ``OSError`` of artifact I/O.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

__all__ = ["usable_cpus", "forked", "worker_failure", "receive",
           "send_array", "read_into"]


def usable_cpus() -> int:
    """CPUs this process may run workers on: 1 without
    ``os.sched_getaffinity`` or the fork start method, and in a daemon
    process, which may not have children."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    if count < 2:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return count


@contextlib.contextmanager
def worker_failure(message: str):
    """Raise an ``EOFError`` or ``OSError`` inside the block as
    ``RuntimeError(message)``."""
    try:
        yield
    except (EOFError, OSError) as exc:
        raise RuntimeError(message) from exc


def _run(body, what: str, conn, parent_ends) -> None:
    """Body of a forked worker: ``body(conn)``, with any exception it
    raises sent to the parent.

    Closing the inherited parent-side pipe ends first makes the worker's
    next message fail once the parent is gone, and the worker then exits.
    """
    for end in parent_ends:
        end.close()
    try:
        body(conn)
    except Exception as exc:
        try:
            conn.send(exc)
        except OSError:
            pass  # the parent has gone
        except Exception:  # the exception does not pickle
            conn.send(RuntimeError(f"{what} failed: {exc!r}"))


@contextlib.contextmanager
def forked(bodies, what: str):
    """Run each ``body(conn)`` of ``bodies`` in a forked daemon worker and
    yield one ``(conn, process)`` per body, ``conn`` being the parent's
    end of that worker's pipe.

    The workers inherit the parent's memory, so only commands and results
    cross the pipes.  On exit every pipe is closed and every worker
    joined; on an error the workers are terminated first.  A fork that
    fails raises ``RuntimeError("cannot start a <what>")``.
    """
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    ends, processes = [], []
    try:
        with worker_failure(f"cannot start a {what}"):
            for body in bodies:
                conn, child_end = ctx.Pipe()
                ends.append(conn)
                try:
                    process = ctx.Process(
                        target=_run, args=(body, what, child_end, list(ends)),
                        daemon=True)
                    process.start()
                finally:
                    child_end.close()
                processes.append(process)
        yield list(zip(ends, processes))
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for end in ends:
            end.close()
        for process in processes:
            process.join()


def receive(conn, message: str):
    """The worker's next pickled message; an exception it sent is raised
    here, and a pipe that ends raises ``RuntimeError(message)``."""
    with worker_failure(message):
        reply = conn.recv()
    if isinstance(reply, BaseException):
        raise reply
    return reply


def send_array(conn, array: np.ndarray) -> None:
    """Write a contiguous array's bytes to ``conn``'s socket, unframed:
    the reader knows the shape."""
    view = memoryview(array).cast("B")
    while view:
        view = view[os.write(conn.fileno(), view):]


def read_into(conn, out: np.ndarray, message: str) -> None:
    """Read ``send_array``'s bytes straight into the contiguous ``out``,
    with no intermediate copy; a pipe that ends first raises
    ``RuntimeError(message)``."""
    view = memoryview(out).cast("B")
    with worker_failure(message):
        while view:
            size = os.readv(conn.fileno(), [view])
            if not size:
                raise RuntimeError(message)
            view = view[size:]
