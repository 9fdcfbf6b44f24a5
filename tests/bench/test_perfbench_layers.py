"""Guard the end-to-end benchmark's per-layer entry-point table.

``perfbench/layers.py`` traces each layer by wrapping the public entry
points listed in ``ENTRY_POINTS``. If a refactor renames or removes one,
the wrapper would fail to install, or the layer's per-layer metric (e.g.
``ml.gbrt_fit``) would silently read zero. This suite only reads
``perfbench/``: it imports ``layers.py`` from its file path and checks
the table against the program.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ml.gbrt import GBRTRegressor
from repro.obs import StageProfiler

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    name = "perfbench_layers_guard"
    spec = importlib.util.spec_from_file_location(name, LAYERS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_every_entry_point_resolves_to_a_callable(layers):
    assert layers.ENTRY_POINTS
    for stage, owner, attribute in layers.ENTRY_POINTS:
        target = getattr(owner, attribute, None)
        assert callable(target), f"{stage}: {owner!r}.{attribute} is gone"


def test_stage_names_are_unique(layers):
    stages = [stage for stage, __, __ in layers.ENTRY_POINTS]
    assert len(stages) == len(set(stages))


def test_gbrt_fit_is_traced(layers):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(64, 3))
    y = X[:, 0]
    profiler = StageProfiler()
    with layers.LayerTracer().tracing(profiler):
        GBRTRegressor(n_trees=2).fit(X, y)
    assert profiler.report()["ml.gbrt_fit"]["calls"] == 1
