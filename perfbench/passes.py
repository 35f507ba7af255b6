"""One timed pass of the benchmark, in a fresh interpreter.

``run.py`` starts this file once per pass, so in-process memos can never
turn a cold pass warm.  It prints one JSON line: the monotonic time at
which set-up finished (``ready``), the wall time of the timed work, the
peak RSS, the correctness verdict and, when traced, the layer snapshot.

    python3 perfbench/passes.py report    [--trace]
    python3 perfbench/passes.py bundled   --cache DIR [--trace]
                                          [--save FILE | --expect FILE]
    python3 perfbench/passes.py daemon    --layers-out FILE -- <cli args>

``daemon`` runs ``ucomplexity`` (normally ``serve``) with the layer
wrappers installed and writes their snapshot on each SIGUSR1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import layers  # noqa: E402  (perfbench/ is sys.path[0])
import reference  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Timer:
    """Wall time and peak RSS of the work of a pass."""

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.rss_mb = _peak_rss_mb()


def _finish(ready: float, timer: Timer, errors: dict[str, list[str]],
            attempted: int, tracer) -> None:
    """Print the pass record; ``errors`` maps each failed operation (a
    component, a module, the report) to its mismatches."""
    from repro.obs import metrics as obs_metrics

    out = {
        "ready": ready,
        "wall_s": timer.wall_s,
        "rss_mb": timer.rss_mb,
        "attempted": attempted,
        "failed": len(errors),
        "errors": [e for errs in errors.values() for e in errs][:20],
        "registry": layers.registry_view(obs_metrics.snapshot()),
    }
    if tracer is not None:
        out["layers"] = tracer.snapshot()
    print(json.dumps(out))


def report_pass(args) -> None:
    from repro.analysis import reportgen

    layers.preload(layers.FIT_GROUPS)
    ready = time.monotonic()
    # Keep the evaluation result the report renders, to check numbers
    # rather than rounded text.
    captured = []
    evaluate = reportgen.evaluate_estimators

    def capture(*a, **kw):
        captured.append(evaluate(*a, **kw))
        return captured[-1]

    reportgen.evaluate_estimators = capture
    tracer = (layers.LayerTracer(layers.FIT_GROUPS).install()
              if args.trace else None)
    with Timer() as timer:
        text = reportgen.generate_report()
    problems = [] if "Table 4" in text else ["report lacks Table 4"]
    if len(captured) != 1:
        problems.append(f"{len(captured)} evaluations, expected 1")
    else:
        problems += reference.check_table4(captured[0])
    _finish(ready, timer, {"report": problems} if problems else {}, 1, tracer)


def bundled_pass(args) -> None:
    from repro.cache import SynthesisCache
    from repro.core.engine import Engine

    layers.preload(layers.MEASURE_GROUPS)
    engine = Engine(jobs=1, cache=SynthesisCache(args.cache))
    ready = time.monotonic()
    tracer = (layers.LayerTracer(layers.MEASURE_GROUPS).install()
              if args.trace else None)
    with Timer() as timer:
        out = engine.measure_catalog()
    got = reference.table3(out)
    errors = reference.check_bundled(got)
    if args.save:
        Path(args.save).write_text(json.dumps(got))
    if args.expect:
        # A warm pass must equal the cold pass that filled its cache,
        # FanInLC included: both read the same stored synthesis reports.
        cold = json.loads(Path(args.expect).read_text())
        for comp, errs in reference.compare_metrics(
                got, cold, reference.TABLE3, "warm vs cold").items():
            errors.setdefault(comp, []).extend(errs)
    _finish(ready, timer, errors, len(got), tracer)


def daemon(args) -> None:
    """Serve with the wrappers installed.  Each SIGUSR1 writes the layer
    snapshot so far to ``FILE.<n>`` (n = 0, 1, ...), so the client can
    take the difference over exactly the window it timed."""
    from repro.cli import main

    tracer = layers.LayerTracer(layers.MEASURE_GROUPS).install()
    written = 0

    def dump(_signum, _frame) -> None:
        nonlocal written
        path = Path(f"{args.layers_out}.{written}")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(tracer.snapshot()))
        os.replace(tmp, path)
        written += 1

    signal.signal(signal.SIGUSR1, dump)
    sys.exit(main(args.cli))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind",
                        choices=("report", "bundled", "daemon"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cache")
    parser.add_argument("--save")
    parser.add_argument("--expect")
    parser.add_argument("--layers-out")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.cli = argv[split + 1:]
    {"report": report_pass, "bundled": bundled_pass,
     "daemon": daemon}[args.kind](args)


if __name__ == "__main__":
    main()
