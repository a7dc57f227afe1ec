"""glspec benchmark: bandwidth selection, bulk-law recipes and manifold
recovery, timed end to end (``--trace 0``) or per module (``--trace 1``).

Run from the root of a checkout:

    python3 perfbench/run.py --workload select_circle --seed 0 --seconds 25 --trace 0

Each workload runs in fresh interpreters started from here, with
``PYTHONPATH`` set to the checkout's ``src``.  One of them sets up, times
whole rounds of the workload for about ``--seconds`` and checks the outputs.
Five before it and five after it only set up; ``setup_s`` is the median of
the eleven set-ups.  A traced run skips the set-up-only children.
Without ``--workload`` all three run in turn and their metric names get the
workload as a prefix.  Every workload has its own budget of ``BUDGET_S``
seconds.  The last line printed is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
Artifacts, results and trace files go to ``.perfbench_out/<workload>/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("select_circle", "bulk_laws", "manifold_rmse")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_median", "s"),
    ("peak_rss_mb", "MB"),
)
# a workload must end within 180 s; leave room for the parent itself
BUDGET_S = 170.0
# set-ups measured per untraced run; their median is setup_s.  The machine's
# speed changes in bursts, so half of them run before the timed child and
# half after it, spread over the whole run.
SETUPS = 11


class BenchError(Exception):
    pass


def _child(workload, args, out, deadline, setup_only):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, os.path.join(HERE, "bench_child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", src, "--out", out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    if t0 >= deadline:
        raise BenchError("%s did not finish within the time budget" % workload)
    cmd += ["--t0", repr(t0)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=deadline - t0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("%s did not finish within the time budget" % workload)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def run_workload(workload, args):
    deadline = time.monotonic() + BUDGET_S
    out = os.path.join(ROOT, ".perfbench_out", workload)
    os.makedirs(out, exist_ok=True)
    extra = 0 if args.trace else SETUPS - 1

    def setups(count):
        return [_child(workload, args, out, deadline, True)["setup_s"] for _ in range(count)]

    before = setups(extra // 2)
    res = _child(workload, args, out, deadline, False)
    setup_times = before + [res["setup_s"]] + setups(extra - extra // 2)
    env = res["environment"]
    print("# %s seed %d: %d round(s), %d checks, cpus %s, %s, threads %s" % (
        workload, args.seed, res["rounds"], res["checks"], env["cpu_count"],
        env["blas"], json.dumps(env["threads"], sort_keys=True)), file=sys.stderr)
    if args.trace:
        from bench_trace import PER_LAYER

        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in PER_LAYER}
        if "trace_overhead_s" in res:
            print("# %s trace overhead: %+.3f s per round (%+.1f%%) against the untraced run"
                  " of the same seed and sources that ended %.0f s earlier" % (
                      workload, res["trace_overhead_s"], 100 * res["trace_overhead_share"],
                      res["trace_baseline_age_s"]), file=sys.stderr)
        else:
            print("# %s trace overhead: no untraced run of this workload, seed and sources"
                  " to compare with" % workload, file=sys.stderr)
    else:
        completed = res["attempted"] - res["failed"]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(res["round_s"]),
            "ops_per_s": completed / res["timed_s"],
            "op_s_median": statistics.median(res["op_s"]) if res["op_s"] else float("nan"),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print("%s %s %.6g %s" % (workload, name, m["value"], m["unit"]))
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "glspec", "__init__.py")):
        print("no glspec sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    workloads = (args.workload,) if args.workload else WORKLOADS
    try:
        parts = {w: run_workload(w, args) for w in workloads}
    except BenchError as err:
        print("benchmark failed: %s" % err, file=sys.stderr)
        return 3
    result = {
        "correct": all(p["correct"] for p in parts.values()),
        "attempted": sum(p["attempted"] for p in parts.values()),
        "failed": sum(p["failed"] for p in parts.values()),
        # one workload gives the bare metric names, all three prefix theirs
        "metrics": {
            ("" if args.workload else w + ".") + name: m
            for w, p in parts.items()
            for name, m in p["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
