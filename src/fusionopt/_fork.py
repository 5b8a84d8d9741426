"""Tasks run in forked processes: the first share here, each other share in a child.

The package's one fork helper. ``cli`` runs ``compare``'s weight searches
through it, and ``scoreio`` its score-file readers and CSV formatters.
It forks only on Linux, with more than one usable CPU (the process's CPU
affinity), from the main thread; anywhere else the same calls run the
tasks here, one by one, with no child.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import threading
import traceback
from contextlib import contextmanager, suppress
from functools import partial

# How long, in milliseconds, the parent waits on a child's pipe before it
# returns to the interpreter. A signal that reaches another thread, such as
# an OpenBLAS worker, runs its Python handler only once the main thread is
# back there.
_WAKE_MS = 50


def usable_cpus() -> int:
    """The CPUs tasks may be forked onto; 1 off Linux or off the main thread.

    SIGTERM's handler, which kills the children, can be set only from the
    main thread.
    """
    if sys.platform != "linux" or threading.current_thread() is not threading.main_thread():
        return 1
    return len(os.sched_getaffinity(0))


# The signals _terminate took since forked installed it. CPython may run the
# handler inside an os.register_at_fork hook, such as logging's, and drops
# what it raises there; so forked checks this after each fork.
_received: list[int] = []


def _terminate(signum, frame):
    _received.append(signum)
    raise SystemExit(128 + signum)


@contextmanager
def forked(tasks, names, ways: int | None = None):
    """One call per task, in order, that returns the task's value or raises its error.

    With two usable CPUs or more, the tasks are cut into at most ``ways``
    shares (by default one per usable CPU) of consecutive tasks, none more
    than one task larger than another, the smallest first. Each share but
    the first starts at once in a child of its own, which runs its tasks in
    order and stops at the first that raises. The first share runs here, each task when its call is
    made. A task's outcome is its value or its error: a call to a child's
    task waits for the child, then returns or raises as the task did; an
    unexpected error keeps the child's traceback as its cause.
    So the calls give what running the tasks here in order gives, as long as
    the caller stops at the first call that raises.

    ``names[i]`` names task ``i`` in the errors about its process, such as
    "method 'ga': search". A child that dies before it sends its outcome
    raises ChildProcessError. A share whose process cannot be started (a
    process or descriptor limit) runs here instead, as does every share
    after it. On leaving, also through SIGTERM (one that arrives during a
    fork included), any child still running is killed, and every child is
    reaped.
    """
    tasks = list(tasks)
    cpus = usable_cpus()
    ways = min(cpus if ways is None else ways, len(tasks)) if cpus > 1 else 1
    if ways < 2:
        yield tasks
        return
    small, larger = divmod(len(tasks), ways)
    sizes = [small + (i >= ways - larger) for i in range(ways)]
    # A buffer a child copied would be written twice if it were ever flushed.
    sys.stdout.flush()
    sys.stderr.flush()
    children: dict[int, int] = {}  # pid -> read end of its pipe
    _received.clear()
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        calls = tasks[:sizes[0]]
        for size in sizes[1:]:
            start = len(calls)
            try:
                collect = _fork(tasks[start:start + size], names[start:start + size], children)
            except OSError:
                break
            finally:  # the new child, if any, is in children, so it is killed below
                if _received:
                    raise SystemExit(128 + _received[0])
            calls += [partial(collect, i, name)
                      for i, name in enumerate(names[start:start + size])]
        yield calls + tasks[len(calls):]
    finally:
        for pid, fd in children.items():
            # A signal may have left a child reaped but still listed; its
            # pid may since belong to another process.
            with suppress(ChildProcessError):
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            os.close(fd)
        signal.signal(signal.SIGTERM, previous)


class _ChildTraceback(Exception):
    """The traceback of an error raised in a child process, set as its cause."""

    def __str__(self):
        return f'\n"""\n{self.args[0]}"""'


def _fork(share, names, children):
    """Start ``share`` in a child; return ``collect(i, name)``, which gives task i's outcome."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            values, error = [], None
            for task, name in zip(share, names):
                try:
                    values.append(task())
                except BaseException as exc:  # the parent raises it
                    error = _portable(exc, name), traceback.format_exc()
                    break
            with open(write_fd, "wb") as fh:
                pickle.dump((values, error), fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    children[pid] = read_fd
    outcome = []

    def collect(i, name):
        if not outcome:
            data = _read(read_fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if code or not data:
                ended = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"{name} process {ended} before it sent a result")
            outcome.append(pickle.loads(data))
        values, error = outcome[0]
        if i < len(values):
            return values[i]
        raise error[0] from _ChildTraceback(error[1])

    return collect


def _read(fd) -> bytes:
    """All a child writes to its pipe, waking every ``_WAKE_MS`` so signal handlers run."""
    chunks, pipe = [], select.poll()
    pipe.register(fd, select.POLLIN)
    while True:
        if pipe.poll(_WAKE_MS):
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _portable(exc: BaseException, name: str) -> BaseException:
    """``exc`` if a pickled copy of it loads, else a RuntimeError that names it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{name} raised {exc!r}, which cannot be pickled")
    return exc
