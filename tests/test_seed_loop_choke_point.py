"""Every noise draw of every recipe happens inside ``experiments._seed_major``,
the one per-seed loop.  It holds each seed's widest draw while the recipe's
other shapes read prefixes of it, so a seed's noise stays frozen across a
sweep of strengths, bandwidths or aspect ratios by construction, not by the
order of a hand-written loop."""

import weakref

import pytest

import glspec.datagen as datagen
import glspec.experiments as experiments
from glspec.experiments import EXPERIMENT_NAMES, ExperimentConfig, run

from test_experiments import SMALL_SETTINGS


def _noise_draws(monkeypatch):
    """Empty the noise table and list, for each noise draw from here on,
    its seed and whether a ``_seed_major`` call was running."""
    depth, drawn = [0], []
    loop, build = experiments._seed_major, datagen._substream

    def counted(*args):
        depth[0] += 1
        try:
            return loop(*args)
        finally:
            depth[0] -= 1

    def record(seed, k):
        if k == 0:
            drawn.append((seed, depth[0] > 0))
        return build(seed, k)

    monkeypatch.setattr(experiments, "_seed_major", counted)
    monkeypatch.setattr(datagen, "_substream", record)
    monkeypatch.setattr(datagen, "_NOISE", weakref.WeakValueDictionary())
    return drawn


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_every_noise_draw_is_made_inside_the_seed_loop(tmp_path, monkeypatch, name):
    drawn = _noise_draws(monkeypatch)
    settings = SMALL_SETTINGS[name]
    run(ExperimentConfig(name=name, seeds=(0, 1), output_dir=str(tmp_path), **settings), fast=True)
    assert drawn
    assert [seed for seed, inside in drawn if not inside] == []


def test_the_check_sees_a_draw_outside_the_loop(monkeypatch):
    drawn = _noise_draws(monkeypatch)
    datagen.gen_spiked(10, 5, (1.0,), 3)
    experiments._seed_major(
        [4], [(10, 5)], lambda n, p, seed: datagen.gen_spiked(n, p, (1.0,), seed)
    )
    assert drawn == [(3, False), (4, True)]
