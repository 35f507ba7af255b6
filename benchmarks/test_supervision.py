"""Supervised-execution benchmarks: overhead and chaos completion.

Two trajectories tracked in BENCH_obs.json:

* ``exec.supervision_wall_ratio`` -- supervised wall time over bare
  ``ProcessPoolExecutor`` wall time on a clean 100-component generated
  catalog (identical results required).  The bare reference is built
  here: a plain pool running the library's own component task with the
  same worker context, i.e. the same work minus deadlines, retries and
  quarantine.  The ratio is the median of interleaved bare/supervised
  pairs, each timed under a fresh tracer so no run pays for the spans of
  the runs before it.  1.0 means free supervision; the acceptance bar is
  <= 1.05 (5% overhead).  The ratio is >= 0 by construction,
  directionally unambiguous (lower is better), and history entries stay
  comparable run to run.
* ``exec.chaos_completion_rate`` -- fraction of a fault-injected catalog
  that still completes with exact results (the rest must be structured
  quarantines, not crashes).
"""

import statistics
import time
from concurrent.futures import ProcessPoolExecutor

from repro import obs
from repro.core.workflow import measure_components
from repro.exec import BlobStore, SupervisionPolicy, WorkerContext
from repro.exec.workers import _install_context
from repro.gen import corpus_specs, generate_corpus
from repro.parallel import (
    _MEASURE_PRELOAD,
    _measure_task,
    merge_worker_telemetry,
)

JOBS = 4

#: Wall-ratio bar: supervised may cost at most 5% over the bare pool.
MAX_WALL_RATIO = 1.05

#: Interleaved bare/supervised pairs behind the median ratio.
PAIRS = 5


def _catalog():
    modules = list(generate_corpus("verilog", 50, seed=3))
    modules += list(generate_corpus("vhdl", 50, seed=3))
    return modules, corpus_specs(modules)


def _bare_pool(specs):
    """Component name -> metrics, measured on an unsupervised pool."""
    with BlobStore.create() as blobs:
        context = WorkerContext(
            values={
                "blobs": blobs, "strict": False, "cache": None,
                "lint": False,
                "capture_trace": obs.active() is not None,
                "run_ns": "bare",
            },
            preload=_MEASURE_PRELOAD,
        )
        payloads = [(i, blobs.put(spec)) for i, spec in enumerate(specs)]
        with ProcessPoolExecutor(
            max_workers=JOBS, initializer=_install_context,
            initargs=(context,),
        ) as pool:
            outcomes = list(pool.map(_measure_task, payloads))
    metrics = {}
    for spec, outcome in zip(specs, outcomes):
        merge_worker_telemetry(outcome)
        metrics[spec.name] = outcome.value.unwrap().metrics
    return metrics


def _supervised(specs):
    batch = measure_components(specs, jobs=JOBS)
    assert not batch.failures
    return {name: m.metrics for name, m in batch.measurements.items()}


def _timed(fn, specs):
    with obs.using(obs.Tracer()):
        t0 = time.perf_counter()
        result = fn(specs)
        return time.perf_counter() - t0, result


def test_supervision_overhead_on_clean_catalog(bench_series, report):
    _, specs = _catalog()

    ratios, bare_s, sup_s = [], [], []
    for i in range(PAIRS):
        # Alternate which side runs first so neither owns the warm slot.
        if i % 2:
            t_sup, supervised = _timed(_supervised, specs)
            t_bare, bare = _timed(_bare_pool, specs)
        else:
            t_bare, bare = _timed(_bare_pool, specs)
            t_sup, supervised = _timed(_supervised, specs)
        # Same results, byte for byte, whichever pool ran the batch.
        assert supervised == bare
        bare_s.append(t_bare)
        sup_s.append(t_sup)
        ratios.append(t_sup / t_bare if t_bare > 0 else 1.0)

    ratio = statistics.median(ratios)
    assert ratio <= MAX_WALL_RATIO, (bare_s, sup_s)

    bench_series("exec.supervision_wall_ratio", ratio)
    report(
        "supervision wall ratio (clean 100-component catalog)",
        f"bare pool median {statistics.median(bare_s):.2f}s, supervised "
        f"median {statistics.median(sup_s):.2f}s -> median pair ratio "
        f"{ratio:.3f} over {PAIRS} pairs (bar {MAX_WALL_RATIO:.2f})",
    )


def test_chaos_completion_rate(bench_series, report):
    modules, specs = _catalog()
    names = [gm.name for gm in modules]
    injured = {
        names[9]: ("hang",),
        names[33]: ("kill",),
        names[71]: ("kill",),
        names[88]: ("oom", 2048),
    }
    policy = SupervisionPolicy(
        deadline_s=2.0,
        memory_limit_mb=1024,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        poll_interval_s=0.05,
        chaos=injured,
    )
    t0 = time.perf_counter()
    batch = measure_components(specs, jobs=JOBS, supervision=policy)
    wall = time.perf_counter() - t0

    # Injured components quarantine; every healthy one completes exactly.
    assert set(batch.failures) == set(injured)
    truth = {gm.name: gm.truth for gm in modules}
    for name, measurement in batch.measurements.items():
        assert measurement.metrics["Stmts"] == truth[name]["Stmts"], name

    completion = len(batch.measurements) / len(specs)
    assert completion == (len(specs) - len(injured)) / len(specs)

    bench_series("exec.chaos_completion_rate", completion)
    report(
        "chaos completion (hang/kill/OOM injected)",
        f"{len(batch.measurements)}/{len(specs)} components completed "
        f"({completion:.0%}) in {wall:.2f}s; "
        f"{len(batch.failures)} structured quarantines",
    )
