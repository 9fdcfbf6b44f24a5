"""The benchmark's three workloads, driven through the public PS3 API.

Every workload runs one fixed deployment — a table, a trained picker
and an evaluation set, all drawn from ``DEPLOYMENT_SEED`` — under a
request stream drawn from ``--seed``. Fixing the deployment keeps build,
training and accuracy figures comparable across seeds, so a change in
them is a change in the program; the seed varies the traffic. The
program receives only the generated tables and queries.

Every workload is a closed loop with one client: the generator issues
its next request only after the previous one completed, and no query is
issued twice.

* ``adhoc`` — one analyst issuing distinct ad-hoc queries back to back
  (``PS3.query``). The picker dominates each request and training
  dominates ``fit``; a sweep or batching gain should not move it.
* ``dashboard`` — dashboard refreshes through ``PS3.serve()``: eight
  panel queries sharing one filter, submitted together, the refresh
  waiting for the slowest. The sweep and the serving batch plane
  dominate; the picker does little.
* ``ingest`` — an operator alternating a journaled ``PS3.append``
  (store attached, so the write-ahead log is fsynced) with one read.
  The only workload on the write path.

A run goes: set-up (generation), build, fit, an untimed evaluation
phase (``rel_error``, and the caches warm), the timed closed loop,
correctness checks, then checkpoints and cold loads (mmap bundle plus
``load_model``) through to a first answer. So every workload reports
the same end-to-end metric set. In traced runs, the layers a workload
bypasses read 0 with 0 calls.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import (
    LayerTracer,
    counter,
    histogram_total,
    program_span,
    ratio,
    scope,
    span_cost_seconds,
    stage_calls,
    stage_wall,
)
from repro import storage
from repro.api import PS3, answer_with_selection
from repro.core.picker import PS3Picker
from repro.datasets.registry import get_dataset
from repro.engine.aggregates import count_star
from repro.engine.query import Query
from repro.obs import StageProfiler, snapshot_delta
from repro.workload import QueryGenerator

DATASET = "tpch"
#: Seed of every workload's table, training queries and evaluation set.
DEPLOYMENT_SEED = 7
#: Request streams use seed ``STREAM_SEED_OFFSET + --seed``, so no
#: ``--seed`` reproduces the deployment's own query generator.
STREAM_SEED_OFFSET = 1000
#: Set-up (generation) is repeated and its median reported.
SETUP_REPEATS = 3
#: Checkpoints and cold loads per run; the medians are reported.
COLD_REPEATS = 3
#: Full-budget answers must match ``execute_exact`` this closely.
EXACT_RTOL = 1e-9
#: A wedged future fails its request instead of hanging the run.
RESULT_TIMEOUT_S = 60.0
#: Phases whose layer spans a traced run records as a whole.
TRACED_PHASES = ("build", "fit", "cold")

ADHOC = {
    "partitions": 512,
    "rows_per_partition": 400,
    "budget_fraction": 0.05,
    "train_queries": 16,
    "eval_queries": 64,
    "full_budget_checks": 8,
    "stream_queries": 3000,
}
DASHBOARD = {
    "partitions": 64,
    "rows_per_partition": 5000,
    "budget_fraction": 0.5,
    "panels": 8,
    "train_queries": 8,
    "eval_refreshes": 8,
    "checked_refreshes": 2,
    "stream_refreshes": 400,
}
INGEST = {
    "partitions": 256,
    "rows_per_partition": 400,
    "append_rows": 400,
    "budget_fraction": 0.05,
    "train_queries": 8,
    "eval_appends": 8,
    "eval_queries": 48,
    "stream_appends": 600,
}


@dataclass
class Inputs:
    """Everything generated for one run; the program sees only these."""

    ptable: object
    workload: object
    train: list
    evaluation: list  # queries, or refreshes (lists of panel queries)
    stream: list
    eval_arrivals: list = field(default_factory=list)  # ingest only
    arrivals: list = field(default_factory=list)  # ingest only


class Run:
    """Metrics, checks and failure counts of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = LayerTracer() if trace else None
        self.metrics: dict[str, dict] = {}
        self.layers: dict[str, dict] = {}
        self.checks: dict[str, dict] = {}
        self.conditions: dict = {}
        self.phase_seconds: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._profilers: dict[str, StageProfiler] = {}

    def metric(self, name: str, value, unit: str, samples: int = 1) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "samples": samples}

    def layer(self, name: str, value, unit: str) -> None:
        self.layers[name] = {"value": value, "unit": unit}

    def check(self, name: str, ok: bool, **detail) -> None:
        self.checks[name] = {"ok": bool(ok), **detail}

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(repr(error))

    def _profiler(self, phase: str) -> StageProfiler | None:
        if self.tracer is None:
            return None
        return self._profilers.setdefault(phase, StageProfiler())

    @contextmanager
    def phase(self, name: str):
        """Time a phase; traced runs also trace build, fit and cold."""
        profiler = self._profiler(name) if name in TRACED_PHASES else None
        started = time.perf_counter()
        try:
            with scope(self.tracer, profiler):
                yield
        finally:
            self.phase_seconds[name] = time.perf_counter() - started

    def request(self, index: int):
        """(traced?, scope) of a timed request; traced runs trace every other."""
        traced = self.tracer is not None and index % 2 == 0
        tracer = self.tracer if traced else None
        return traced, scope(tracer, self._profiler("timed"))

    def report(self, phase: str) -> dict:
        profiler = self._profilers.get(phase)
        return profiler.report() if profiler is not None else {}

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks.values())


class Timed:
    """What the timed phase of a workload leaves for the per-layer view."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # one per request
        self.traced: list[bool] = []
        self.append_latencies: list[float] = []  # ingest only
        self.selections: list[list[list[int]]] = []  # per request, per query
        self.delta: dict = {}  # program metrics over the timed phase
        self.cold_delta: dict = {}  # ... and over checkpoints and cold loads

    def traced_mean_ms(self, latencies: list[float]) -> float:
        on = [t for t, flag in zip(latencies, self.traced) if flag]
        return float(np.mean(on)) * 1e3 if on else 0.0


# -- shared steps ---------------------------------------------------------------


def _setup(run: Run, generate) -> Inputs:
    """Generate the inputs SETUP_REPEATS times; report the median time."""
    times = []
    with run.phase("setup"):
        for __ in range(SETUP_REPEATS):
            started = time.perf_counter()
            inputs = generate(run.seed)
            times.append(time.perf_counter() - started)
    run.metric("setup_s", statistics.median(times), "s", len(times))
    # The generated inputs are the benchmark's own objects: move them
    # out of the collector's reach, so their number does not tax the
    # program's garbage collections.
    gc.collect()
    gc.freeze()
    return inputs


def _build_and_fit(run: Run, inputs: Inputs) -> PS3:
    with run.phase("build"):
        started = time.perf_counter()
        system = PS3(inputs.ptable, inputs.workload)
        run.metric("build_s", time.perf_counter() - started, "s")
    with run.phase("fit"):
        started = time.perf_counter()
        system.fit(inputs.train)
        run.metric("fit_s", time.perf_counter() - started, "s")
    return system


def _latency_metrics(run: Run, latencies_s: list[float], prefix: str) -> None:
    values = np.asarray(latencies_s) * 1e3
    for label, q in (("p50", 50.0), ("p95", 95.0)):
        value = np.percentile(values, q) if values.size else float("nan")
        run.metric(f"{prefix}_{label}_ms", value, "ms", int(values.size))


def _rel_error(run: Run, system: PS3, pairs) -> None:
    """Mean ``avg_relative_error`` against ``execute_exact``."""
    errors = [system.evaluate(q, a).avg_relative_error for q, a in pairs]
    value = float(np.mean(errors)) if errors else float("nan")
    run.metric("rel_error", value, "ratio", len(errors))


def _within_budget(answers) -> bool:
    return all(len(a.selection.selection) <= a.budget for a in answers)


def _partitions(answer) -> list[int]:
    return [choice.partition for choice in answer.selection.selection]


def _max_rel_diff(exact: dict, approx: dict) -> float:
    """Largest relative difference over all groups; inf if groups differ."""
    if set(exact) != set(approx):
        return float("inf")
    worst = 0.0
    for key, truth in exact.items():
        truth = np.asarray(truth, dtype=np.float64)
        value = np.asarray(approx[key], dtype=np.float64)
        if not np.array_equal(np.isnan(truth), np.isnan(value)):
            return float("inf")
        known = ~np.isnan(truth)
        scale = np.maximum(np.abs(truth[known]), np.finfo(np.float64).tiny)
        diff = np.abs(value[known] - truth[known]) / scale
        if diff.size:
            worst = max(worst, float(diff.max()))
    return worst


def _bit_identical(left: dict, right: dict) -> bool:
    if set(left) != set(right):
        return False
    return all(
        np.asarray(left[k]).tobytes() == np.asarray(right[k]).tobytes()
        for k in left
    )


def _cold_load(stats_path: Path, model_path: Path, ptable, query, budget: int):
    """mmap the bundle, load the model and answer one query."""
    bundle = storage.load_statistics_bundle(stats_path, mmap=True)
    model = storage.load_model(model_path, bundle.statistics, index=bundle.index)
    picker = PS3Picker(model, bundle.statistics)
    selection = picker.select(query, budget)
    return selection, answer_with_selection(ptable, query, selection.selection)


def _repeat(operation) -> list[float]:
    """Wall seconds of COLD_REPEATS calls."""
    times = []
    for __ in range(COLD_REPEATS):
        started = time.perf_counter()
        operation()
        times.append(time.perf_counter() - started)
    return times


def _checkpoint_and_cold_load(
    run: Run, system: PS3, store, query: Query, budget_fraction: float
) -> dict:
    """Repeated checkpoints and cold starts; reports their medians.

    Returns the program's metric delta over the phase.
    """
    model_path = store.directory / "model.json"
    storage.save_model(system.model, model_path)
    budget = max(1, int(round(budget_fraction * system.ptable.num_partitions)))
    before = system.metrics()
    cold = []

    def cold_start() -> None:
        cold[:] = _cold_load(store.stats_path, model_path, system.ptable, query, budget)

    with run.phase("cold"):
        checkpoints = _repeat(system.checkpoint)
        loads = _repeat(cold_start)
    selection, groups = cold
    delta = snapshot_delta(before, system.metrics())
    run.metric("checkpoint_s", statistics.median(checkpoints), "s", len(checkpoints))
    run.metric("cold_load_ms", statistics.median(loads) * 1e3, "ms", len(loads))
    size = store.stats_path.stat().st_size
    partitions = system.ptable.num_partitions
    run.metric("stats_kb_per_partition", size / partitions / 1e3, "KB")

    recovered, __ = storage.StatisticsStore(store.directory).load_statistics()
    run.check(
        "checkpoint_recovers_partitions",
        recovered.num_partitions == partitions,
        recovered=recovered.num_partitions,
        live=partitions,
    )
    # A fresh picker over the live statistics must pick and answer
    # exactly what the cold-loaded one does: the round trip is lossless.
    live = PS3Picker(system.model, system.statistics).select(query, budget)
    live_groups = answer_with_selection(system.ptable, query, live.selection)
    run.check(
        "cold_answer_matches_live",
        selection.selection == live.selection and _bit_identical(groups, live_groups),
        budget=budget,
        read=len(selection.selection),
    )
    return delta


def _conditions(run: Run, cfg: dict, request: str) -> None:
    run.conditions = {
        "loop": "closed",
        "clients": 1,
        "request": request,
        "dataset": DATASET,
        "deployment_seed": DEPLOYMENT_SEED,
        **cfg,
    }


def _generators(seed: int, ptable, workload):
    """(deployment generator, request-stream generator)."""
    return (
        QueryGenerator(workload, ptable.table, seed=DEPLOYMENT_SEED),
        QueryGenerator(workload, ptable.table, seed=STREAM_SEED_OFFSET + seed),
    )


def _labels(queries) -> set[str]:
    return {query.label() for query in queries}


def _closed_loop(run: Run, system: PS3, timed: Timed, requests, issue) -> float:
    """Issue ``requests`` back to back until ``run.seconds`` have passed.

    ``issue(request)`` answers one request and records its latency; in
    traced runs every other request is traced. Returns elapsed seconds.
    """
    before = system.metrics()
    started = time.perf_counter()
    deadline = started + run.seconds
    for i, request in enumerate(requests):
        if time.perf_counter() >= deadline:
            break
        traced, tracing = run.request(i)
        with tracing:
            issue(request)
        timed.traced.append(traced)
    elapsed = time.perf_counter() - started
    timed.delta = snapshot_delta(before, system.metrics())
    return elapsed


def _read(run: Run, system: PS3, query: Query, budget_fraction: float, answered):
    """One counted ``PS3.query``; returns its wall seconds."""
    run.attempted += 1
    started = time.perf_counter()
    try:
        answer = system.query(query, budget_fraction=budget_fraction)
    except Exception as error:  # counted as failed; the run goes on
        run.fail(error)
    else:
        answered.append((query, answer))
    return time.perf_counter() - started


def _append(run: Run, system: PS3, columns: dict) -> float:
    """One counted, journaled ``PS3.append``; returns its wall seconds."""
    run.attempted += 1
    started = time.perf_counter()
    try:
        system.append(columns)
    except Exception as error:  # counted as failed; the run goes on
        run.fail(error)
    return time.perf_counter() - started


# -- adhoc --------------------------------------------------------------------


def _generate_adhoc(seed: int) -> Inputs:
    cfg = ADHOC
    spec = get_dataset(DATASET)
    rows = cfg["partitions"] * cfg["rows_per_partition"]
    ptable = spec.build(rows, cfg["partitions"], seed=DEPLOYMENT_SEED)
    workload = spec.workload()
    deployment, requests = _generators(seed, ptable, workload)
    train, evaluation = deployment.train_test_split(
        cfg["train_queries"], cfg["eval_queries"]
    )
    stream = requests.sample_queries(
        cfg["stream_queries"], exclude=_labels(train + evaluation)
    )
    return Inputs(ptable, workload, train, evaluation, stream)


def run_adhoc(run: Run, workdir: Path) -> Timed:
    cfg = ADHOC
    budget_fraction = cfg["budget_fraction"]
    inputs = _setup(run, _generate_adhoc)
    system = _build_and_fit(run, inputs)
    scored = []
    with run.phase("eval"):
        for query in inputs.evaluation:
            _read(run, system, query, budget_fraction, scored)
        _rel_error(run, system, scored)

    timed = Timed()
    answered = []

    def issue(query: Query) -> None:
        timed.latencies.append(_read(run, system, query, budget_fraction, answered))

    with run.phase("timed"):
        elapsed = _closed_loop(run, system, timed, inputs.stream, issue)
    timed.selections = [[_partitions(a)] for __, a in answered]

    _latency_metrics(run, timed.latencies, "latency")
    run.metric("throughput_qps", len(answered) / elapsed, "1/s", len(answered))
    with run.phase("checks"):
        run.check(
            "answers_within_budget",
            bool(answered) and _within_budget(a for __, a in answered + scored),
            answers=len(answered) + len(scored),
        )
        checked = inputs.evaluation[: cfg["full_budget_checks"]]
        worst = max(
            _max_rel_diff(
                system.execute_exact(query),
                system.query(query, budget_fraction=1.0).groups,
            )
            for query in checked
        )
        run.check(
            "full_budget_matches_exact",
            worst <= EXACT_RTOL,
            max_rel_diff=worst,
            queries=len(checked),
        )
    store = system.attach_store(workdir)
    timed.cold_delta = _checkpoint_and_cold_load(
        run, system, store, inputs.stream[-1], budget_fraction
    )
    _conditions(run, cfg, "one query")
    return timed


# -- dashboard ------------------------------------------------------------------


def _refreshes(
    generator: QueryGenerator, count: int, panels: int, taken: set[str]
) -> list[list[Query]]:
    """``count`` refreshes with filters not in ``taken`` (which grows).

    Every refresh's panels share one filter and differ in aggregates or
    group-by.
    """
    refreshes: list[list[Query]] = []
    attempts = 0
    while len(refreshes) < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("could not generate enough distinct filters")
        anchor = generator.sample_query()
        if anchor.predicate is None or anchor.predicate.label() in taken:
            continue
        taken.add(anchor.predicate.label())
        labels: set[str] = set()
        refresh: list[Query] = []
        while len(refresh) < panels:
            shape = generator.sample_query()
            panel = Query(shape.aggregates, anchor.predicate, shape.group_by)
            if panel.label() not in labels:
                labels.add(panel.label())
                refresh.append(panel)
        refreshes.append(refresh)
    return refreshes


def _generate_dashboard(seed: int) -> Inputs:
    cfg = DASHBOARD
    spec = get_dataset(DATASET)
    rows = cfg["partitions"] * cfg["rows_per_partition"]
    ptable = spec.build(rows, cfg["partitions"], seed=DEPLOYMENT_SEED)
    workload = spec.workload()
    deployment, requests = _generators(seed, ptable, workload)
    train = deployment.sample_queries(cfg["train_queries"])
    taken: set[str] = set()
    evaluation = _refreshes(deployment, cfg["eval_refreshes"], cfg["panels"], taken)
    stream = _refreshes(requests, cfg["stream_refreshes"], cfg["panels"], taken)
    return Inputs(ptable, workload, train, evaluation, stream)


def _refresh(run: Run, front, panels, budget_fraction: float) -> list:
    """Submit every panel, then wait for all; returns (panel, answer)s."""
    futures = []
    for panel in panels:
        run.attempted += 1
        try:
            futures.append(
                (panel, front.submit(panel, budget_fraction=budget_fraction))
            )
        except Exception as error:  # shed or refused: counted as failed
            run.fail(error)
    answered = []
    for panel, future in futures:
        try:
            answered.append((panel, future.result(timeout=RESULT_TIMEOUT_S)))
        except Exception as error:  # a failed panel is counted
            run.fail(error)
    return answered


def run_dashboard(run: Run, workdir: Path) -> Timed:
    cfg = DASHBOARD
    budget_fraction = cfg["budget_fraction"]
    inputs = _setup(run, _generate_dashboard)
    system = _build_and_fit(run, inputs)

    timed = Timed()
    answered: list[list] = []
    front = system.serve()

    def issue(panels: list[Query]) -> None:
        started = time.perf_counter()
        refresh = _refresh(run, front, panels, budget_fraction)
        timed.latencies.append(time.perf_counter() - started)
        answered.append(refresh)
        timed.selections.append([_partitions(a) for __, a in refresh])

    try:
        with run.phase("eval"):
            scored = [
                pair
                for panels in inputs.evaluation
                for pair in _refresh(run, front, panels, budget_fraction)
            ]
        with run.phase("timed"):
            elapsed = _closed_loop(run, system, timed, inputs.stream, issue)
    finally:
        front.stop()

    pairs = [pair for refresh in answered for pair in refresh]
    _latency_metrics(run, timed.latencies, "latency")
    run.metric("throughput_qps", len(pairs) / elapsed, "1/s", len(pairs))
    with run.phase("checks"):
        _rel_error(run, system, scored)
        run.check(
            "answers_within_budget",
            bool(pairs) and _within_budget(a for __, a in pairs + scored),
            answers=len(pairs) + len(scored),
        )
        # Every panel of the evaluation refreshes and of the first timed
        # ones; checking all timed refreshes would cost more than the run.
        head = answered[: cfg["checked_refreshes"]]
        checked = scored + [pair for refresh in head for pair in refresh]
        mismatched = sum(
            not _bit_identical(
                answer.groups,
                answer_with_selection(system.ptable, panel, answer.selection.selection),
            )
            for panel, answer in checked
        )
        run.check(
            "panels_match_answer_with_selection",
            bool(head) and mismatched == 0,
            panels=len(checked),
            mismatched=mismatched,
        )
    store = system.attach_store(workdir)
    timed.cold_delta = _checkpoint_and_cold_load(
        run, system, store, inputs.stream[-1][0], budget_fraction
    )
    _conditions(run, cfg, f"one refresh of {cfg['panels']} panel queries")
    run.conditions["serving_config"] = "ServingConfig() defaults"
    return timed


# -- ingest -------------------------------------------------------------------


def _generate_ingest(seed: int) -> Inputs:
    cfg = INGEST
    spec = get_dataset(DATASET)
    rows = cfg["partitions"] * cfg["rows_per_partition"]
    ptable = spec.build(rows, cfg["partitions"], seed=DEPLOYMENT_SEED)
    workload = spec.workload()
    deployment, requests = _generators(seed, ptable, workload)
    train, evaluation = deployment.train_test_split(
        cfg["train_queries"], cfg["eval_queries"]
    )
    count = cfg["stream_appends"]
    stream = requests.sample_queries(count, exclude=_labels(train + evaluation))

    def arrivals(batches: int, batch_seed: int) -> list[dict]:
        sealed = spec.build(cfg["append_rows"] * batches, batches, seed=batch_seed)
        return [partition.columns for partition in sealed]

    return Inputs(
        ptable,
        workload,
        train,
        evaluation,
        stream,
        eval_arrivals=arrivals(cfg["eval_appends"], DEPLOYMENT_SEED + 1),
        arrivals=arrivals(count, STREAM_SEED_OFFSET + seed),
    )


def run_ingest(run: Run, workdir: Path) -> Timed:
    cfg = INGEST
    budget_fraction = cfg["budget_fraction"]
    inputs = _setup(run, _generate_ingest)
    system = _build_and_fit(run, inputs)
    store = system.attach_store(workdir)
    base = system.ptable.num_partitions

    scored = []
    with run.phase("eval"):
        for columns in inputs.eval_arrivals:
            _append(run, system, columns)
        for query in inputs.evaluation:
            _read(run, system, query, budget_fraction, scored)
        _rel_error(run, system, scored)

    timed = Timed()
    answered = []

    def issue(request: tuple[dict, Query]) -> None:
        columns, query = request
        timed.append_latencies.append(_append(run, system, columns))
        timed.latencies.append(_read(run, system, query, budget_fraction, answered))

    requests = zip(inputs.arrivals, inputs.stream)
    with run.phase("timed"):
        elapsed = _closed_loop(run, system, timed, requests, issue)
    timed.selections = [[_partitions(a)] for __, a in answered]

    _latency_metrics(run, timed.latencies, "latency")
    _latency_metrics(run, timed.append_latencies, "append")
    run.metric("throughput_qps", len(answered) / elapsed, "1/s", len(answered))
    with run.phase("checks"):
        run.check(
            "answers_within_budget",
            bool(answered) and _within_budget(a for __, a in answered + scored),
            answers=len(answered) + len(scored),
        )
        # After the last append, a full-budget scan must select every
        # appended partition and count every row.
        full = system.query(Query([count_star()]), budget_fraction=1.0)
        appended = set(range(base, system.ptable.num_partitions))
        (count,) = full.groups.values()
        rows = system.ptable.table.num_rows
        run.check(
            "full_scan_selects_appended",
            appended <= set(_partitions(full)) and float(count[0]) == rows,
            appended=len(appended),
            rows=rows,
        )
    timed.cold_delta = _checkpoint_and_cold_load(
        run, system, store, inputs.stream[-1], budget_fraction
    )
    _conditions(run, cfg, "one read, after one journaled append")
    run.conditions["partitions_after_run"] = system.ptable.num_partitions
    return timed


# -- per-layer metrics ----------------------------------------------------------

#: Read-path stages, in ms per request of the workload's request unit.
QUERY_STAGES = (
    "stats.featurize",
    "core.select",
    "core.outliers",
    "core.funnel",
    "core.cluster",
    "ml.gbrt_predict",
    "ml.kmeans",
    "engine.execute",
)
#: Write-path stages, in ms per append.
APPEND_STAGES = (
    "sketches.append",
    "stats.refresh",
    "engine.append_rows",
    "storage.wal_append",
)
#: Lifecycle stages, in seconds over their phase: (phase, stage).
LIFECYCLE_STAGES = (
    ("build", "sketches.build"),
    ("build", "stats.index"),
    ("fit", "core.training_data"),
    ("fit", "ml.gbrt_fit"),
)


def per_layer(run: Run, timed: Timed) -> None:
    """Every per-layer metric; a bypassed layer reads 0 with 0 calls."""
    report = run.report("timed")
    n_traced = timed.traced.count(True)
    n_all = len(timed.latencies)
    delta = timed.delta
    for stage in QUERY_STAGES + APPEND_STAGES:
        run.layer(f"{stage}_ms", ratio(stage_wall(report, stage) * 1e3, n_traced), "ms")
        run.layer(f"{stage}.calls", stage_calls(report, stage), "count")
    for phase, stage in LIFECYCLE_STAGES:
        run.layer(f"{stage}_s", stage_wall(run.report(phase), stage), "s")
        run.layer(f"{stage}.calls", stage_calls(run.report(phase), stage), "count")
    cold = run.report("cold")
    for stage in ("storage.bundle_load", "storage.model_load"):
        wall, calls = stage_wall(cold, stage), stage_calls(cold, stage)
        run.layer(f"{stage}_ms", ratio(wall * 1e3, calls), "ms")
        run.layer(f"{stage}.calls", calls, "count")
    wall, calls = program_span(timed.cold_delta, "storage.checkpoint")
    run.layer("storage.checkpoint_s", ratio(wall, calls), "s")
    run.layer("storage.checkpoint.calls", calls, "count")

    # Spans and counters the program emits itself, over the whole timed
    # phase (traced and untraced requests alike).
    for cache, layer in (("plan_cache", "stats"), ("mask_cache", "engine")):
        hits = counter(delta, f"{cache}.hits")
        lookups = hits + counter(delta, f"{cache}.misses")
        run.layer(f"{layer}.{cache}_hit_ratio", ratio(hits, lookups), "ratio")
        run.layer(f"{layer}.{cache}.lookups", lookups, "count")
    wall, calls = program_span(delta, "engine.sweep")
    run.layer("engine.sweep_ms", ratio(wall * 1e3, n_all), "ms")
    run.layer("engine.sweep.calls", calls, "count")
    needed = shared = 0
    for selections in timed.selections:
        union = set().union(*selections)
        needed += sum(len(s) for s in selections)
        shared += len(selections) * len(union)
    run.layer("engine.sweep_useful_ratio", ratio(needed, shared), "ratio")
    for stage in ("pick", "sweep", "scatter"):
        wall, calls = program_span(delta, f"serving.{stage}")
        run.layer(f"engine.serving.{stage}_ms", ratio(wall * 1e3, n_all), "ms")
        run.layer(f"engine.serving.{stage}.calls", calls, "count")
    wait, waits = histogram_total(delta, "serving.admission_wait_seconds")
    run.layer("engine.serving.admission_wait_ms", ratio(wait * 1e3, waits), "ms")
    queries = counter(delta, "serving.queries")
    run.layer(
        "engine.serving.batch_size",
        ratio(queries, counter(delta, "serving.batches")),
        "queries",
    )
    run.layer(
        "engine.serving.dedup_ratio",
        ratio(counter(delta, "serving.pick_dedup_hits"), queries),
        "ratio",
    )
    for part, label in (("append", "write"), ("fsync", "fsync")):
        total, count = histogram_total(delta, f"storage.wal.{part}_seconds")
        run.layer(f"storage.wal_{label}_ms", ratio(total * 1e3, count), "ms")
    spans = sum(entry["calls"] for entry in report.values())
    run.layer("obs.spans", spans, "count")
    run.layer("obs.tracing_overhead_frac", _overhead(run, timed, spans), "ratio")
    _blocking_checks(run, timed)


def _overhead(run: Run, timed: Timed, spans: int) -> float:
    """Share of the traced requests' time spent recording wrapper spans.

    The program's own spans are recorded in end-to-end runs too, so only
    the wrapper spans count: their number times the measured cost of one.
    """
    latencies = timed.latencies
    if timed.append_latencies:  # an ingest request is the whole cycle
        latencies = [a + r for a, r in zip(timed.append_latencies, latencies)]
    traced = sum(t for t, flag in zip(latencies, timed.traced) if flag)
    cost = span_cost_seconds(run.tracer)
    run.layer("obs.span_cost_us", cost * 1e6, "us")
    return ratio(spans * cost, traced)


def _blocking_checks(run: Run, timed: Timed) -> None:
    """Layer times along a blocking path fit in the time they belong to."""

    def within(name: str, stages: tuple[str, ...], total: float) -> None:
        layers = sum(run.layers[s]["value"] for s in stages)
        run.check(name, layers <= total, layers=list(stages), sum=layers, total=total)

    if run.workload == "dashboard":
        # Serving spans cover every refresh, so compare with all of them.
        stages = tuple(f"engine.serving.{s}_ms" for s in ("pick", "sweep", "scatter"))
        within("refresh_layers_within_latency", stages, np.mean(timed.latencies) * 1e3)
    else:
        within(
            "read_layers_within_latency",
            ("core.select_ms", "engine.execute_ms"),
            timed.traced_mean_ms(timed.latencies),
        )
    if run.workload == "ingest":
        within(
            "append_layers_within_latency",
            tuple(f"{s}_ms" for s in APPEND_STAGES),
            timed.traced_mean_ms(timed.append_latencies),
        )
    within(
        "build_layers_within_build",
        ("sketches.build_s", "stats.index_s"),
        run.metrics["build_s"]["value"],
    )
    within(
        "fit_layers_within_fit",
        ("core.training_data_s", "ml.gbrt_fit_s"),
        run.metrics["fit_s"]["value"],
    )


WORKLOADS = {"adhoc": run_adhoc, "dashboard": run_dashboard, "ingest": run_ingest}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, work_root: Path
) -> Run:
    """Run one workload in a private directory under ``work_root``."""
    run = Run(name, seed, seconds, trace)
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        timed = WORKLOADS[name](run, workdir)
        run.metric(
            "failed_frac", ratio(run.failed, run.attempted), "ratio", run.attempted
        )
        if trace:
            per_layer(run, timed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    return run
