"""Spans around the calls into glspec's public functions, kept in memory.

``Tracer.install`` replaces each traced function at the place where its
calling module binds it (``glspec.bandwidth.affinity``,
``glspec.experiments.select_omega``, ...) and ``numpy.linalg.eigvalsh`` /
``eigh`` with a wrapper that records one span per call; ``uninstall`` puts
the originals back.  Spans are kept per thread: a call opened while another
span is open on the same thread is its child.  A span opened on a pool
worker with nothing open on that thread is the child of the innermost span
open on the main thread at that moment (the ``experiments.run`` that handed
out the work), so the time the main thread waits for its workers is not
counted as its own.

Self time is a span's duration minus the part of its interval that its
children cover; overlapping children on different threads count once.
"""

import json
import threading
import time

import numpy as np

# (layer, module attribute path): every binding a workload reaches.
TRACED = (
    ("datagen", "glspec.experiments.gen_spiked"),
    ("datagen", "glspec.experiments.gen_circle"),
    ("datagen", "glspec.experiments.gen_curve_m1"),
    ("datagen", "glspec.experiments.gen_klein_bottle"),
    ("kernels.pairwise_sq_dists", "glspec.experiments.pairwise_sq_dists"),
    ("kernels.pairwise_sq_dists", "glspec.bandwidth.pairwise_sq_dists"),
    ("kernels.affinity", "glspec.experiments.affinity"),
    ("kernels.affinity", "glspec.bandwidth.affinity"),
    ("linalg.eigvalsh", "numpy.linalg.eigvalsh"),
    ("linalg.eigh", "numpy.linalg.eigh"),
    ("spectrum.sym_eigs", "glspec.experiments.sym_eigs"),
    ("spectrum.bulk_rigidity", "glspec.experiments.bulk_rigidity"),
    ("spectrum.stieltjes", "glspec.experiments.stieltjes"),
    ("spectrum.op_norm_diff", "glspec.experiments.op_norm_diff"),
    ("spectrum.eigvec_rmse", "glspec.experiments.eigvec_rmse"),
    ("mplaw.typical_location", "glspec.experiments.typical_location"),
    ("mplaw.typical_location", "glspec.spectrum.typical_location"),
    ("mplaw.mp_cdf", "glspec.experiments.mp_cdf"),
    ("mplaw.measure", "glspec.experiments.nu0"),
    ("approximants", "glspec.experiments.w_a1"),
    ("approximants", "glspec.experiments.w_b1"),
    ("bandwidth.select_omega", "glspec.experiments.select_omega"),
    ("bandwidth.select_omega", "glspec.bandwidth.select_omega"),
    ("bandwidth.quantile_bandwidth", "glspec.experiments.quantile_bandwidth"),
    ("bandwidth.quantile_bandwidth", "glspec.bandwidth.quantile_bandwidth"),
    ("bandwidth.window_outliers", "glspec.bandwidth.window_outliers"),
    ("bandwidth.resample_threshold", "glspec.experiments.resample_threshold"),
    ("bandwidth.resample_threshold", "glspec.bandwidth.resample_threshold"),
    ("experiments.run", "glspec.experiments.run"),
)

LINALG = ("linalg.eigvalsh", "linalg.eigh")

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("datagen.calls", "count"),
    ("datagen.self_s", "s"),
    ("kernels.pairwise_sq_dists.calls", "count"),
    ("kernels.pairwise_sq_dists.self_s", "s"),
    ("kernels.affinity.calls", "count"),
    ("kernels.affinity.self_s", "s"),
    ("linalg.eigvalsh.calls", "count"),
    ("linalg.eigvalsh.self_s", "s"),
    ("linalg.eigvalsh.n3_sum", "count"),
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.self_s", "s"),
    ("linalg.eigh.n3_sum", "count"),
    ("spectrum.sym_eigs.calls", "count"),
    ("spectrum.sym_eigs.self_s", "s"),
    ("spectrum.bulk_rigidity.self_s", "s"),
    ("spectrum.stieltjes.calls", "count"),
    ("spectrum.stieltjes.self_s", "s"),
    ("spectrum.op_norm_diff.self_s", "s"),
    ("spectrum.eigvec_rmse.self_s", "s"),
    ("mplaw.typical_location.calls", "count"),
    ("mplaw.typical_location.self_s", "s"),
    ("mplaw.mp_cdf.calls", "count"),
    ("mplaw.mp_cdf.self_s", "s"),
    ("mplaw.measure.calls", "count"),
    ("mplaw.measure.self_s", "s"),
    ("approximants.calls", "count"),
    ("approximants.self_s", "s"),
    ("bandwidth.select_omega.calls", "count"),
    ("bandwidth.select_omega.self_s", "s"),
    ("bandwidth.quantile_bandwidth.calls", "count"),
    ("bandwidth.quantile_bandwidth.self_s", "s"),
    ("bandwidth.window_outliers.self_s", "s"),
    ("bandwidth.resample_threshold.calls", "count"),
    ("bandwidth.resample_threshold.self_s", "s"),
    ("bandwidth.eigensolves_per_selection", "count"),
    ("experiments.run.calls", "count"),
    ("experiments.run.self_s", "s"),
    ("experiments.artifact_bytes", "bytes"),
)


def _resolve(path):
    module_path, attr = path.rsplit(".", 1)
    module = __import__(module_path, fromlist=[attr])
    return module, attr


class Tracer:
    """Records spans (layer, thread, start, end, parent, n) while installed."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._saved = []
        # a span's index must be the one it was appended at, whatever the
        # other threads append meanwhile
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn):
        tracer = self
        is_linalg = layer in LINALG

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            size = int(np.shape(args[0])[-1]) if is_linalg else 0
            span = [layer, threading.get_ident(), time.perf_counter(), None, parent, size]
            with tracer._lock:
                tracer.spans.append(span)
                stack.append(len(tracer.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, path in TRACED:
            module, attr = _resolve(path)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- summary ----------------------------------------------------------

    def self_times(self):
        """Self time of every span, by index."""
        children = {}
        for idx, span in enumerate(self.spans):
            children.setdefault(span[4], []).append(idx)
        out = []
        for idx, (_, _, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            kids = sorted(
                (self.spans[k][2], self.spans[k][3]) for k in children.get(idx, ())
            )
            for lo, hi in kids:
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def _inside_selection(self, idx):
        parent = self.spans[idx][4]
        while parent >= 0:
            if self.spans[parent][0] == "bandwidth.select_omega":
                return True
            parent = self.spans[parent][4]
        return False

    def summary(self, rounds, artifact_bytes):
        """Per-layer metrics per round of the workload; ``artifact_bytes``
        is already per round."""
        calls, self_s, n3 = {}, {}, {}
        solves_in_selection = 0
        for idx, (span, own) in enumerate(zip(self.spans, self.self_times())):
            layer = span[0]
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + own
            if layer in LINALG:
                n3[layer] = n3.get(layer, 0) + span[5] ** 3
                if self._inside_selection(idx):
                    solves_in_selection += 1
        selections = calls.get("bandwidth.select_omega", 0)
        values = {}
        for name, _ in PER_LAYER:
            layer, kind = name.rsplit(".", 1)
            if kind == "calls":
                values[name] = calls.get(layer, 0) / rounds
            elif kind == "self_s":
                values[name] = self_s.get(layer, 0.0) / rounds
            elif kind == "n3_sum":
                values[name] = n3.get(layer, 0) / rounds
        values["bandwidth.eigensolves_per_selection"] = (
            solves_in_selection / selections if selections else 0
        )
        values["experiments.artifact_bytes"] = artifact_bytes
        return values

    def write_spans(self, path):
        names = ("layer", "thread", "start", "end", "parent", "n")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")
