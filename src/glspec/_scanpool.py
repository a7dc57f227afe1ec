"""Worker processes for the library's independent loops.

``call`` runs module-level functions of ``glspec`` on pickled arguments in
one ``python -c`` worker per task and returns their results in task order.
Three loops send their work here, each split into at most ``size(jobs)``
shares, one per usable CPU:

- the levels of a bandwidth scan (``level_counts``, from
  ``bandwidth.select_omega``): only the integer counts come back;
- the seeds of ``experiments._seed_major``, or the shapes of a one-seed
  call: whole seeds, so each seed's held noise draw stays in one process;
- the repetitions of ``bandwidth.resample_threshold``: one contiguous
  range of repetitions per worker.

Each worker runs with one BLAS thread, so what comes back does not depend
on the caller's thread settings.  A worker computes in-process: a scan or
a null inside a seed worker starts no further process.

The workers are started on the first call and kept for the next ones.
Only their environment pins the BLAS to one thread and points
``PYTHONPATH`` at the ``glspec`` the caller imported; the caller's own
environment and thread settings are left alone.  The pool belongs to the
process that started it: a forked child starts its own.  An error that a
worker raises is sent back and raised in the caller once every reply is
read.  Any other error or interrupt in the middle of an exchange discards
the pool, so no stale reply is ever read.  A pool that cannot start, or
whose worker dies, makes ``call`` return None for good, and the caller
computes in-process.  The workers are shut down at exit: each one's stdin
is closed and each is waited for.

``tally`` collects the workers that serve a thread's calls, so that a run
can record whether its bytes came from single-thread workers.

The workers are plain ``subprocess`` interpreters, not a ``multiprocessing``
pool: a spawned ``multiprocessing`` worker re-imports the caller's main
module, and a library cannot make its callers guard their ``__main__`` code.
"""

import atexit
import contextlib
import os
import pickle
import sys
import threading

_WORKER = """
import pickle, signal, sys
from glspec import _scanpool
_scanpool._in_worker = True
# the caller handles an interrupt and then discards its workers
signal.signal(signal.SIGINT, signal.SIG_IGN)
tasks, replies = sys.stdin.buffer, sys.stdout.buffer
sys.stdout = sys.stderr
while True:
    try:
        fn, args = pickle.load(tasks)
    except EOFError:
        break
    try:
        reply = (True, fn(*args))
    except Exception as err:
        reply = (False, err)
    try:
        reply = pickle.dumps(reply)
    except Exception as err:
        reply = pickle.dumps((False, RuntimeError("worker reply cannot be pickled: %r" % err)))
    replies.write(reply)
    replies.flush()
"""

_lock = threading.Lock()
_local = threading.local()
_workers = []
_owner = None
_broken = False
# set in a worker process, which computes everything in-process
_in_worker = False


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def size(jobs):
    """How many workers ``jobs`` independent pieces of work get: one per
    usable CPU, at most ``jobs``; 0 when that is fewer than 2, inside a
    worker, or once the pool has failed."""
    if _in_worker or _broken:
        return 0
    count = min(usable_cpus(), jobs)
    return count if count >= 2 else 0


@contextlib.contextmanager
def tally():
    """A set that collects the pids of the workers serving this thread's
    calls while the block runs."""
    served = set()
    stack = _local.__dict__.setdefault("tallies", [])
    stack.append(served)
    try:
        yield served
    finally:
        stack.remove(served)


def _environment():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return env


def _discard(kill):
    """Stop every worker: close its stdin (and kill it, when ``kill``),
    then wait for it; one that has not exited after 10 s is killed."""
    import subprocess

    global _workers
    workers, _workers = _workers, []
    for proc in workers:
        try:
            proc.stdin.close()
        except OSError:
            pass
        if kill:
            proc.kill()
    for proc in workers:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@atexit.register
def shutdown():
    """The exit handler: stop the workers this process started."""
    with _lock:
        if _owner == os.getpid():
            _discard(kill=False)


def _exchange(tasks):
    """Start the missing workers, send each its ``(fn, args)`` task and
    read every reply, in worker order."""
    import subprocess  # only a process that starts workers pays its import

    global _owner
    if _owner != os.getpid():
        # started by the process this one was forked from: not ours to use
        _workers.clear()
        _owner = os.getpid()
    count = len(tasks)
    env = _environment() if len(_workers) < count else None
    while len(_workers) < count:
        _workers.append(subprocess.Popen(
            [sys.executable, "-c", _WORKER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        ))
    for task, proc in zip(tasks, _workers):
        pickle.dump(task, proc.stdin)
        proc.stdin.flush()
    replies = [pickle.load(proc.stdout) for proc in _workers[:count]]
    return replies, [proc.pid for proc in _workers[:count]]


def call(tasks):
    """``fn(*args)`` for each ``(fn, args)`` of ``tasks``, each in its own
    worker, as a list in ``tasks`` order; None when the pool cannot serve,
    and the caller computes in-process.  ``fn`` is a module-level function
    of ``glspec``, or a ``functools.partial`` of one on picklable data.
    An error raised in a worker is raised here."""
    global _broken
    with _lock:
        if _broken:
            return None
        try:
            replies, pids = _exchange(tasks)
        except (OSError, EOFError):
            # a worker could not start or has died
            _broken = True
            _discard(kill=True)
            return None
        except BaseException:
            _discard(kill=True)
            raise
    for served in getattr(_local, "tallies", ()):
        served.update(pids)
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]


def level_counts(D2, hs, *task):
    """``bandwidth._level_counts(D2, hs, *task)`` with the levels dealt
    round-robin to the workers, or None when they cannot serve."""
    from .bandwidth import _level_counts

    count = size(len(hs))
    replies = count and call([(_level_counts, (D2, hs[k::count]) + task) for k in range(count)])
    if not replies:
        return None
    counts = [0] * len(hs)
    for k, value in enumerate(replies):
        counts[k::count] = value
    return counts
