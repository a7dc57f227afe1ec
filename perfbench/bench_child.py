"""One workload in a fresh interpreter: set up, time whole rounds, check.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; ``--t0`` is the parent's ``time.monotonic()`` just before this
process was started, so the set-up time covers the interpreter start,
``import glspec``, making the inputs and one warm-up call.  With
``--setup-only`` it stops there.  The last line of its standard output is
one JSON object for the parent.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {
            key: os.environ.get(key)
            for key in ("GLSPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _artifact_bytes(dirs):
    total = 0
    for out_dir in dirs:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            files = [entry["path"] for entry in json.load(fh)["files"]]
        for name in files + ["manifest.json"]:
            total += os.path.getsize(os.path.join(out_dir, name))
    return total


def _source_digest(src):
    """sha256 over the package's module files: which glspec was measured."""
    pkg = os.path.join(src, "glspec")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _untraced_baseline(path, seed, source):
    """The last untraced result of this workload if it measured the same
    seed and the same sources, else None."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        base = json.load(fh)
    if base.get("seed") != seed or base.get("source_digest") != source:
        return None
    return base


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import glspec

    if os.path.dirname(os.path.abspath(glspec.__file__)) != os.path.join(args.src, "glspec"):
        raise SystemExit("glspec was imported from %s, not from %s" % (glspec.__file__, args.src))
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out)
    workload.warm_up()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    op_times, round_times = [], []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        outputs = workload.run_round(op_times)
        round_times.append(time.perf_counter() - begun)
        timed_s = time.perf_counter() - started
        # whole rounds only: stop unless one more round of the mean length fits
        if timed_s + timed_s / len(round_times) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    # before the checks, which hold scipy and their own matrices
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = len(round_times)
    attempted = rounds * workload.ops_per_round
    try:
        found = workload.check(outputs)
    except Exception as err:  # malformed output: the run is incorrect, not broken
        traceback.print_exc()
        found = {"checks": ["raised %r" % (err,)]}
    failures = ["%s: %s" % (name, msg) for name, msgs in found.items() for msg in msgs]
    for line in failures:
        print("CHECK FAILED " + line, file=sys.stderr)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "rounds": rounds,
        "round_s": round_times,
        "timed_s": timed_s,
        "op_s": op_times,
        "attempted": attempted,
        "failed": attempted - len(op_times),
        "checks": len(found),
        "check_failures": failures,
        "correct": not failures,
        "peak_rss_mb": peak_rss_mb,
        "environment": _environment(),
        "source_digest": _source_digest(args.src),
        "finished_at": time.time(),
    }
    if tracer is not None:
        layers = tracer.summary(rounds, _artifact_bytes(workload.artifact_dirs(outputs)))
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
        base = _untraced_baseline(
            os.path.join(args.out, "untraced_result.json"), args.seed, result["source_digest"]
        )
        if base is not None:
            untraced = statistics.median(base["round_s"])
            traced = statistics.median(round_times)
            result["trace_overhead_s"] = traced - untraced
            result["trace_overhead_share"] = (traced - untraced) / untraced
            result["trace_baseline_age_s"] = result["finished_at"] - base["finished_at"]
        with open(os.path.join(args.out, "trace_summary.json"), "w") as fh:
            json.dump(result, fh, indent=1)
    else:
        with open(os.path.join(args.out, "untraced_result.json"), "w") as fh:
            json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
