"""Per-layer tracing for the traced benchmark run.

The end-to-end runs use the program exactly as shipped. The traced run
additionally wraps each layer's public entry points, from this file and
without editing ``src/``, in :func:`repro.obs.wrap_stage` spans that
feed a :class:`repro.obs.StageProfiler`. The wrappers record into a
private, *disabled* :class:`repro.obs.MetricsRegistry`, so they add
spans for the profiler only and never touch the program's own
registries (whose instruments, e.g. ``serving.queue_depth``, drive
admission control).

Spans the program already emits (``engine.sweep``, ``serving.*``,
``storage.wal.*``, ``storage.checkpoint``, the plan/mask cache
counters) are read separately through :func:`repro.obs.snapshot_delta`
over ``PS3.metrics()`` snapshots.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import repro.api
import repro.core.picker
import repro.core.training
import repro.engine.layout
import repro.sketches.builder
import repro.storage
from repro.core.picker import PS3Picker
from repro.ml.gbrt import GBRTRegressor
from repro.ml.kmeans import KMeans
from repro.obs import MetricsRegistry, StageProfiler, wrap_stage
from repro.stats.features import FeatureBuilder
from repro.storage import StatisticsStore

#: (span name, owner, attribute). A function imported by name into
#: another module is patched where it is *looked up* (e.g. the picker
#: module's ``find_outliers``), so the wrapper sits on the call path.
ENTRY_POINTS = (
    ("sketches.build", repro.api, "build_dataset_statistics"),
    ("sketches.append", repro.sketches.builder, "append_partition_statistics"),
    ("stats.index", FeatureBuilder, "__init__"),
    ("stats.featurize", FeatureBuilder, "features_for_query"),
    ("stats.refresh", FeatureBuilder, "refresh"),
    ("core.select", PS3Picker, "select"),
    ("core.outliers", repro.core.picker, "find_outliers"),
    ("core.funnel", repro.core.picker, "importance_groups"),
    ("core.cluster", repro.core.picker, "cluster_sample"),
    ("core.training_data", repro.core.training, "compute_training_data"),
    ("ml.gbrt_fit", GBRTRegressor, "fit"),
    ("ml.gbrt_predict", GBRTRegressor, "predict"),
    ("ml.kmeans", KMeans, "fit"),
    ("engine.execute", repro.api, "_selection_groups"),
    ("engine.append_rows", repro.engine.layout, "append_rows"),
    ("storage.wal_append", StatisticsStore, "log_append"),
    ("storage.bundle_load", repro.storage, "load_statistics_bundle"),
    ("storage.model_load", repro.storage, "load_model"),
)


class LayerTracer:
    """Installs and removes the entry-point wrappers around one profiler."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry(enabled=False)
        self._originals: list[tuple[object, str, object]] = []

    @contextmanager
    def tracing(self, profiler: StageProfiler):
        """Route every wrapped entry point's spans to ``profiler``."""
        self.registry.add_profiler(profiler)
        for stage, owner, attribute in ENTRY_POINTS:
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                wrap_stage(stage, original, registry=self.registry),
            )
        try:
            yield profiler
        finally:
            while self._originals:
                owner, attribute, original = self._originals.pop()
                setattr(owner, attribute, original)
            self.registry.remove_profiler(profiler)


def _noop() -> None:
    pass


def span_cost_seconds(tracer: LayerTracer, calls: int = 20_000) -> float:
    """Wall seconds one wrapper span adds to a call, measured on a no-op.

    Best of three rounds each way, so a descheduled round does not
    inflate the estimate.
    """
    profiler = StageProfiler()
    tracer.registry.add_profiler(profiler)
    try:
        wrapped = wrap_stage("obs.calibrate", _noop, registry=tracer.registry)
        rounds = {_noop: [], wrapped: []}
        for __ in range(3):
            for func, times in rounds.items():
                started = time.perf_counter()
                for __ in range(calls):
                    func()
                times.append(time.perf_counter() - started)
    finally:
        tracer.registry.remove_profiler(profiler)
    return max(0.0, (min(rounds[wrapped]) - min(rounds[_noop])) / calls)


def scope(tracer: LayerTracer | None, profiler: StageProfiler | None):
    """``tracer.tracing(profiler)``, or a no-op in end-to-end runs."""
    if tracer is None or profiler is None:
        return nullcontext()
    return tracer.tracing(profiler)


def stage_wall(report: dict, stage: str) -> float:
    entry = report.get(stage)
    return entry["wall_seconds"] if entry else 0.0


def stage_calls(report: dict, stage: str) -> int:
    entry = report.get(stage)
    return entry["calls"] if entry else 0


def histogram_total(delta: dict, name: str) -> tuple[float, int]:
    """(sum, count) of a histogram in a ``snapshot_delta``."""
    hist = delta["histograms"].get(name)
    if hist is None:
        return 0.0, 0
    return hist["sum"], hist["count"]


def program_span(delta: dict, stage: str) -> tuple[float, int]:
    """(total wall seconds, calls) of a span the program emits."""
    return histogram_total(delta, f"{stage}.wall_seconds")


def counter(delta: dict, name: str) -> int:
    return delta["counters"].get(name, 0)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
