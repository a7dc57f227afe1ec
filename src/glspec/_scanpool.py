"""Worker processes for the levels of a bandwidth scan.

``bandwidth.select_omega`` hands a large scan to ``level_counts``.  The
levels are dealt round-robin to one ``python -c`` worker per usable CPU
(never more than the scan has levels).  Each worker gets the distance
matrix and its bandwidths pickled over its stdin, runs
``bandwidth._level_counts`` on them and sends back only the integer counts
over its stdout.  No eigenvalue crosses back, so nothing the caller writes
depends on the workers' arithmetic beyond those counts.

The workers are started on the first call and kept for the next ones.
Only their environment pins the BLAS to one thread and points
``PYTHONPATH`` at the ``glspec`` the caller imported; the caller's own
environment and thread settings are left alone.  The pool belongs to the
process that started it: a forked child starts its own.  An error that a
worker raises is sent back and raised in the caller once every reply is
read.  Any other error or interrupt in the middle of an exchange discards
the pool, so no stale reply is ever read.  A pool that cannot start, or
whose worker dies, makes ``level_counts`` return None for good, and the
caller scans in-process.
The workers are shut down at exit: each one's stdin is closed and each is
waited for.

The workers are plain ``subprocess`` interpreters, not a ``multiprocessing``
pool: a spawned ``multiprocessing`` worker re-imports the caller's main
module, and a library cannot make its callers guard their ``__main__`` code.
"""

import atexit
import os
import pickle
import subprocess
import sys
import threading

_WORKER = """
import pickle, signal, sys
from glspec.bandwidth import _level_counts
# the caller handles an interrupt and then discards its workers
signal.signal(signal.SIGINT, signal.SIG_IGN)
tasks, replies = sys.stdin.buffer, sys.stdout.buffer
sys.stdout = sys.stderr
while True:
    try:
        task = pickle.load(tasks)
    except EOFError:
        break
    try:
        reply = (True, _level_counts(*task))
    except Exception as err:
        reply = (False, err)
    pickle.dump(reply, replies)
    replies.flush()
"""

_lock = threading.Lock()
_workers = []
_owner = None
_broken = False


def usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _environment():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return env


def _discard(kill):
    """Stop every worker: close its stdin (and kill it, when ``kill``),
    then wait for it; one that has not exited after 10 s is killed."""
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


def _exchange(D2, hs, task, count):
    """Start the missing workers, send each its share of ``hs`` and read
    every reply, in worker order."""
    global _owner
    if _owner != os.getpid():
        # started by the process this one was forked from: not ours to use
        _workers.clear()
        _owner = os.getpid()
    env = _environment() if len(_workers) < count else None
    while len(_workers) < count:
        _workers.append(subprocess.Popen(
            [sys.executable, "-c", _WORKER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        ))
    for k, proc in enumerate(_workers[:count]):
        pickle.dump((D2, hs[k::count]) + task, proc.stdin)
        proc.stdin.flush()
    return [pickle.load(proc.stdout) for proc in _workers[:count]]


def level_counts(D2, hs, *task):
    """``bandwidth._level_counts(D2, hs, *task)`` computed by the workers,
    or None when fewer than 2 CPUs are usable or the pool cannot serve.
    An error raised in a worker is raised here."""
    global _broken
    count = min(usable_cpus(), len(hs))
    if count < 2 or _broken:
        return None
    with _lock:
        try:
            replies = _exchange(D2, hs, task, count)
        except (OSError, EOFError):
            # a worker could not start or has died
            _broken = True
            _discard(kill=True)
            return None
        except BaseException:
            _discard(kill=True)
            raise
    counts = [0] * len(hs)
    for k, (ok, value) in enumerate(replies):
        if not ok:
            raise value
        counts[k::count] = value
    return counts
