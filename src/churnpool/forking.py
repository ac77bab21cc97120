"""One protocol for the forked workers of the sampler and the tree layer.

A worker is a forked daemon process that serves one object over one
socket pair: the parent sends calls ``(name, args)``, and the worker runs
``getattr(obj, name)(*args)`` and sends back the result, one reply per
call, in call order (``serve``).  The worker inherits the parent's
memory, so only calls and their results cross the pipe.  ``served``
yields one proxy per object, whose ``call(name, *args)`` sends and
returns at once and whose ``result()`` waits for the next reply; without
forking the proxies are ``Local`` wrappers with the same two calls, so a
one-CPU run takes the same code path.

Message format.  A message is any picklable object, pickled with
protocol 5 and its contiguous buffers, numpy arrays among them, taken out
of band (PEP 574).  On the wire come the buffer count and the pickle's
size, the size of every buffer, the pickle, and then each buffer's bytes
raw.  The receiver reads every buffer with ``os.readv`` straight into a
fresh one, with no intermediate copy, so arrays arrive with their shape
and dtype and no reader has to know them.

Failures.  An exception raised by a call is sent in place of its reply,
and ``result()`` raises it again with its type and message; one that does
not pickle arrives as ``RuntimeError("<what> failed: ...")``.  The worker
then exits.  A pipe that ends or breaks, or a fork that fails, is a
``RuntimeError``, not an ``OSError`` of artifact I/O.

Deadlock.  Both ends write with blocking writes, and a socket buffers only
a few hundred KiB, so no call may send a large argument while a large
reply can be in flight: the parent would block writing the call while
the worker blocks writing the reply.  Take every reply that may be large
before a call whose arguments may be.
"""

from __future__ import annotations

import collections
import contextlib
import os
import pickle
import struct

__all__ = ["usable_cpus", "served", "serve", "Local"]

# Most buffers one readv or writev takes (Linux's IOV_MAX).
_IOV_MAX = 1024


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
def _failure(message: str):
    """Raise an ``EOFError`` or ``OSError`` inside the block as
    ``RuntimeError(message)``."""
    try:
        yield
    except (EOFError, OSError) as exc:
        raise RuntimeError(message) from exc


def _transfer(io, fd: int, buffers) -> None:
    """Move every byte of ``buffers`` through ``io`` (``os.readv`` or
    ``os.writev``) on ``fd``; ``EOFError`` if the pipe ends first.  Each
    buffer is one-dimensional bytes, as ``PickleBuffer.raw()`` gives."""
    views = [memoryview(buffer) for buffer in buffers if len(buffer)]
    while views:
        size = io(fd, views[:_IOV_MAX])
        if not size:
            raise EOFError
        while size:
            if size < len(views[0]):
                views[0] = views[0][size:]
                break
            size -= len(views.pop(0))


def _send(fd: int, message) -> None:
    """Write ``message`` to ``fd`` in the format above."""
    buffers = []
    data = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    raw = [buffer.raw() for buffer in buffers]
    head = struct.pack(f"<2Q{len(raw)}Q", len(raw), len(data),
                       *(view.nbytes for view in raw))
    _transfer(os.writev, fd, [head, data, *raw])


def _receive(fd: int):
    """Read one message from ``fd``; ``EOFError`` if the pipe ends."""
    head = bytearray(16)
    _transfer(os.readv, fd, [head])
    count, size = struct.unpack("<2Q", head)
    meta = bytearray(8 * count + size)
    _transfer(os.readv, fd, [meta])
    buffers = [bytearray(n) for n in struct.unpack_from(f"<{count}Q", meta)]
    _transfer(os.readv, fd, buffers)
    return pickle.loads(memoryview(meta)[8 * count:], buffers=buffers)


def serve(obj, conn) -> None:
    """Answer calls of ``obj`` over ``conn``, one reply per call, until the
    parent closes its end."""
    fd = conn.fileno()
    while True:
        try:
            name, args = _receive(fd)
        except EOFError:
            return
        _send(fd, getattr(obj, name)(*args))


def _run(obj, what: str, conn, parent_ends) -> None:
    """Body of a forked worker: ``serve(obj, conn)``, with any exception
    it raises sent to the parent.

    Closing the inherited parent-side pipe ends first makes the worker's
    next read end once the parent is gone, and the worker then exits.
    """
    for end in parent_ends:
        end.close()
    try:
        serve(obj, conn)
    except Exception as exc:
        try:
            _send(conn.fileno(), exc)
        except OSError:
            pass  # the parent has gone
        except Exception:  # the exception does not pickle
            _send(conn.fileno(), RuntimeError(f"{what} failed: {exc!r}"))


class _Proxy:
    """The parent's end of a forked worker; ``conn`` is its pipe and
    ``process`` the worker."""

    def __init__(self, conn, process, what: str):
        self.conn, self.process = conn, process
        self._gone = f"a {what} exited unexpectedly"

    def call(self, name: str, *args) -> None:
        """Send the call ``obj.name(*args)`` and return at once."""
        try:
            _send(self.conn.fileno(), (name, args))
        except OSError:
            pass  # the worker has gone; the next result() says why

    def result(self):
        """The reply to the oldest call not yet answered."""
        with _failure(self._gone):
            reply = _receive(self.conn.fileno())
        if isinstance(reply, BaseException):
            raise reply
        return reply


class Local:
    """A proxy for ``obj`` in this process, with the calls of a worker's:
    ``result()`` makes the oldest call not yet answered, so a call's
    arguments must not change before its result is taken."""

    def __init__(self, obj):
        self._obj, self._calls = obj, collections.deque()

    def call(self, name: str, *args) -> None:
        self._calls.append((name, args))

    def result(self):
        name, args = self._calls.popleft()
        return getattr(self._obj, name)(*args)


@contextlib.contextmanager
def served(objs, what: str, fork: bool):
    """Yield one proxy per object of ``objs``: ``Local`` wrappers unless
    ``fork``, else the ends of forked daemon workers that serve them.

    On exit every pipe is closed and every worker joined; on an error the
    workers are terminated first.  A fork that fails raises
    ``RuntimeError("cannot start a <what>")``.
    """
    if not fork:
        yield [Local(obj) for obj in objs]
        return
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    ends, processes = [], []
    try:
        with _failure(f"cannot start a {what}"):
            for obj in objs:
                conn, child_end = ctx.Pipe()
                ends.append(conn)
                try:
                    process = ctx.Process(
                        target=_run, args=(obj, what, child_end, list(ends)),
                        daemon=True)
                    process.start()
                finally:
                    child_end.close()
                processes.append(process)
        yield [_Proxy(conn, process, what)
               for conn, process in zip(ends, processes)]
    except BaseException:
        for process in processes:
            process.terminate()
        raise
    finally:
        for end in ends:
            end.close()
        for process in processes:
            process.join()
