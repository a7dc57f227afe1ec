"""Every config the registry's fields can spell is refused or finishes.

For each recipe, hypothesis draws small values for the optional fields its
``_RUNNERS`` entry reads, and an ``upsilon`` and ``seeds``, and runs the
config in ``--fast`` mode, with RuntimeWarning as an error (pyproject.toml).
Each config must end one of three ways:

- ``validate`` refuses it;
- ``run`` raises ``ValueError`` and the output directory does not exist;
- ``run`` completes and every number in its CSVs is finite.

The draws are derandomized, so every run checks the same configs; a wider
search raises ``EXAMPLES`` or drops ``derandomize``.
"""

import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspec.experiments import _RUNNERS, EXPERIMENT_NAMES, ExperimentConfig, run

# small sizes: n is always drawn, so no recipe runs at its default size
# (ManifoldRmse's is n = 400 and 800), and c >= 0.25 keeps p = round(n/c)
# at most 96, or 800 in PhaseSweep's tracked half at n = 200.  n = 1,
# reps = 0 and c >= 2n are there to be refused.
FIELDS = {
    "n": st.integers(1, 24),
    "c_grid": st.none() | st.lists(st.floats(0.25, 50.0), min_size=1, max_size=3).map(tuple),
    "alpha_grid": st.none() | st.lists(st.floats(-1.0, 6.0), min_size=1, max_size=2).map(tuple),
    "reps": st.none() | st.integers(0, 3),
    "alpha_base": st.sampled_from([None, "n", "p"]),
}

# configs per recipe. PhaseSweep's tracked half (26 strengths per c at
# n = 200) and DimensionSweep's fixed sizes (n up to 300) take about a
# second a run whatever is drawn; the others take milliseconds.
EXAMPLES = {"PhaseSweep": 4, "DimensionSweep": 2}


def _numbers(path):
    """Every field below a CSV's header that reads as a number."""
    with open(path) as fh:
        next(fh)
        for line in fh:
            for text in line.rstrip("\n").split(","):
                try:
                    yield float(text)
                except ValueError:
                    pass


def _refused_or_finished(name, fields):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        cfg = ExperimentConfig(name=name, output_dir=out, **fields)
        try:
            cfg.validate()
        except ValueError:
            return
        try:
            manifest = run(cfg, fast=True)
        except ValueError as err:
            assert name in str(err)
            assert not os.path.exists(out)
            return
        for entry in manifest["files"]:
            if entry["path"].endswith(".csv"):
                path = os.path.join(out, entry["path"])
                assert all(map(math.isfinite, _numbers(path))), entry["path"]


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_every_config_is_refused_or_finishes(name):
    configs = st.fixed_dictionaries(dict(
        {field: FIELDS[field] for field in _RUNNERS[name][1]},
        upsilon=st.floats(0.01, 60.0),
        seeds=st.lists(st.integers(0, 999), min_size=1, max_size=2).map(tuple),
    ))

    @settings(max_examples=EXAMPLES.get(name, 100), deadline=None, derandomize=True, database=None)
    @given(configs)
    def check(fields):
        _refused_or_finished(name, fields)

    check()
