"""The forked-worker protocol: messages, replies in call order, failures
and worker exits.  Every case that a process of its own does not need
runs against a forked worker and against the in-process ``Local``
wrapper alike."""

import multiprocessing
import os
import signal

import numpy as np
import pytest

from churnpool.forking import Local, served


class Service:
    """The object a worker serves in these tests."""

    def __init__(self):
        self.calls = 0

    def echo(self, *args):
        return args

    def count(self):
        self.calls += 1
        return self.calls

    def pid(self):
        return os.getpid()

    def fail(self, error):
        raise error

    def fail_unpicklable(self):
        class Unsent(Exception):
            pass

        raise Unsent("not sent as it is")

    def sized(self, array, nbytes):
        return array.nbytes, np.full(nbytes // 8, 1.5)


@pytest.fixture(params=["forked", "local"])
def proxy(request):
    with served([Service()], "test worker",
                request.param == "forked") as (proxy,):
        yield proxy
    assert multiprocessing.active_children() == []


def _same(a, b):
    """Equal structure, and arrays of the same dtype, shape and bits."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _arrays():
    rng = np.random.default_rng(3)
    return [rng.normal(size=(4, 3)),
            np.arange(7, dtype=np.intp),
            np.array([-3, 0, 127], dtype=np.int8),
            rng.random(9) < 0.5,
            np.empty((0, 5)),
            np.empty(0, dtype=np.intp),
            np.array(2.5),
            np.array(True),
            np.asfortranarray(rng.normal(size=(3, 4)))]


class TestMessages:
    def test_nested_round_trip(self, proxy):
        arrays = _arrays()
        message = ({"first": arrays[0], "rest": [arrays[1], (arrays[2], 4)]},
                   arrays[3:], "text", None, 1.25,
                   {"deep": [[arrays[-1], {"zero-d": arrays[6]}]]})
        proxy.call("echo", *message)
        assert _same(proxy.result(), message)

    @pytest.mark.parametrize("index", range(len(_arrays())))
    def test_every_array_in_every_position(self, proxy, index):
        array = _arrays()[index]
        for message in ((array,), (1, array), (array, "x", array),
                        ([array, {"a": array}],)):
            proxy.call("echo", *message)
            assert _same(proxy.result(), message)

    def test_non_contiguous_array_arrives_as_its_copy(self, proxy):
        base = np.arange(60.0).reshape(6, 10)
        for view in (base[::2, 1::3], base.T[::-1], base[:, 4]):
            assert not view.flags.c_contiguous
            proxy.call("echo", view)
            (got,) = proxy.result()
            assert _same(np.ascontiguousarray(got),
                         np.ascontiguousarray(view))

    def test_replies_come_in_call_order(self, proxy):
        for _ in range(5):
            proxy.call("count")
        proxy.call("echo", "last")
        assert [proxy.result() for _ in range(5)] == [1, 2, 3, 4, 5]
        assert proxy.result() == ("last",)

    def test_large_argument_then_large_reply(self, proxy):
        # Each is 4 MiB, more than a socket buffers.
        argument = np.arange(2 ** 19, dtype=np.float64)
        proxy.call("sized", argument, 2 ** 22)
        size, reply = proxy.result()
        assert size == argument.nbytes == 2 ** 22
        assert reply.nbytes == 2 ** 22 and np.all(reply == 1.5)


class TestFailures:
    def test_exception_keeps_its_type(self, proxy):
        proxy.call("fail", KeyError("missing"))
        with pytest.raises(KeyError, match="missing"):
            proxy.result()

    def test_unpicklable_exception_is_runtime_error(self, proxy):
        proxy.call("fail_unpicklable")
        if isinstance(proxy, Local):
            with pytest.raises(Exception, match="not sent as it is"):
                proxy.result()
        else:
            with pytest.raises(RuntimeError,
                               match="test worker failed: .*not sent"):
                proxy.result()

    def test_calls_after_a_failure_report_it(self):
        # The worker exits after sending the exception: later calls go to
        # a closed pipe, and their results say the worker has gone.
        with pytest.raises(RuntimeError, match="a test worker exited"):
            with served([Service()], "test worker", True) as (proxy,):
                proxy.call("fail", ValueError("first"))
                proxy.call("count")
                with pytest.raises(ValueError, match="first"):
                    proxy.result()
                proxy.process.join(timeout=60)
                proxy.call("count")
                proxy.result()
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_runtime_error(self):
        with pytest.raises(RuntimeError,
                           match="a test worker exited unexpectedly"):
            with served([Service()], "test worker", True) as (proxy,):
                proxy.call("pid")
                assert proxy.result() == proxy.process.pid != os.getpid()
                os.kill(proxy.process.pid, signal.SIGKILL)
                proxy.process.join(timeout=60)
                proxy.call("count")
                proxy.result()
        assert multiprocessing.active_children() == []

    def test_failed_fork_is_runtime_error(self, monkeypatch):
        def refuse(self):
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                            refuse)
        with pytest.raises(RuntimeError, match="cannot start a test worker"):
            with served([Service()], "test worker", True):
                pass
        assert multiprocessing.active_children() == []


class TestWorkerExit:
    def test_worker_exits_when_parent_closes_the_pipe(self):
        with served([Service(), Service()], "test worker",
                    True) as proxies:
            for proxy in proxies:
                proxy.call("count")
                assert proxy.result() == 1
            for proxy in proxies:
                proxy.conn.close()
                proxy.process.join(timeout=60)
                assert proxy.process.exitcode == 0
        assert multiprocessing.active_children() == []

    def test_each_worker_serves_its_own_object(self):
        with served([Service(), Service()], "test worker",
                    True) as proxies:
            for proxy in proxies * 2:
                proxy.call("count")
            assert [proxy.result() for proxy in proxies * 2] == [1, 1, 2, 2]
            pids = set()
            for proxy in proxies:
                proxy.call("pid")
                pids.add(proxy.result())
            assert len(pids) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []
