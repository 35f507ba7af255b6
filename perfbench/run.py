"""The repository benchmark: one command per workload, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no wrapper installed; with ``--trace 1`` they are the
per-layer ones, from passes timed by outside-in wrappers (layers.py)
interleaved with untraced passes that give the tracing overhead.

Workloads (README.md says why each exists):

* ``report-paper`` -- ``generate_report()`` on the paper's dataset;
* ``catalog-cold`` -- the bundled catalog, jobs=1, empty cache;
* ``catalog-warm`` -- the same against the cache a cold pass filled;
* ``serve-mixed``  -- a closed-loop client against ``ucomplexity serve``.

Every timed pass runs in a fresh interpreter (passes.py) with a cache
directory this run created; ``XDG_CACHE_HOME`` and ``TMPDIR`` point into
the run's scratch directory, so the CLI's default cache is never read.
``PYTHONHASHSEED`` is left as the caller has it.  The passes run pinned
to one CPU, and their times are calibrated against the speed of that CPU
(hostspeed.py; README.md says why); serve-mixed calibrates its own way
(serve_mixed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

#: Scratch space under the checkout; removed when the run ends.
SCRATCH = ".perfbench-run"
#: A run measures at least this many passes of each kind, even past
#: ``--seconds``, so a median always has company.
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class Run:
    """Scratch directory, child environment and tallies of one run."""

    def __init__(self, root: Path, seed: int, seconds: float) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.dir = root / SCRATCH / f"{os.getpid()}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._n = 0
        env = dict(os.environ)
        env.update(
            TMPDIR=str(self.fresh_dir("tmp")),
            XDG_CACHE_HOME=str(self.fresh_dir("xdg")),
            PYTHONPATH=str(root / "src"),
        )
        self.env = env
        #: Single-process passes and their calibrations share this CPU:
        #: host speed drifts per CPU, so a calibration run on the other
        #: CPU would not track the pass.
        self.cpu = min(os.sched_getaffinity(0))

    def pin(self) -> None:
        """``preexec_fn`` confining a child process to ``self.cpu``."""
        os.sched_setaffinity(0, {self.cpu})

    def fresh_dir(self, stem: str) -> Path:
        self._n += 1
        path = self.dir / f"{stem}{self._n}"
        path.mkdir()
        return path

    def tally(self, attempted: int, failed: int, errors=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            (self.root / SCRATCH).rmdir()
        except OSError:
            pass  # another run still uses it

    def slowness(self) -> float:
        """The host's current slowness on ``self.cpu`` (hostspeed.py),
        measured in an isolated interpreter that never imports the
        program."""
        proc = subprocess.run(
            [sys.executable, "-I", str(Path("perfbench") / "hostspeed.py")],
            cwd=self.root, capture_output=True, text=True, check=True,
            timeout=PASS_TIMEOUT_S, preexec_fn=self.pin,
        )
        return float(proc.stdout)

    def slowness_each(self, cpus: int) -> list[float]:
        """:meth:`slowness` on each of the first ``cpus`` CPUs at once."""
        procs = [
            subprocess.Popen(
                [sys.executable, "-I", str(Path("perfbench") / "hostspeed.py")],
                cwd=self.root, stdout=subprocess.PIPE, text=True,
                preexec_fn=lambda c=c: os.sched_setaffinity(0, {c}),
            )
            for c in sorted(os.sched_getaffinity(0))[:cpus]
        ]
        out = [proc.communicate(timeout=PASS_TIMEOUT_S)[0] for proc in procs]
        if any(proc.returncode for proc in procs):
            raise RuntimeError("hostspeed.py failed")
        return [float(o) for o in out]

    def pass_(self, kind: str, *args: str, trace: bool = False) -> dict:
        """Run one pass in a fresh interpreter pinned to ``self.cpu`` and
        return its record, with ``setup_s`` measured from spawn to the
        child's ready mark."""
        cmd = [sys.executable, str(Path("perfbench") / "passes.py"), kind,
               *args]
        if trace:
            cmd.append("--trace")
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True,
            text=True, timeout=PASS_TIMEOUT_S, preexec_fn=self.pin,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"pass {kind} exited {proc.returncode}: {proc.stderr[-2000:]}"
            )
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - spawned
        self.tally(record["attempted"], record["failed"], record["errors"])
        return record


def pass_workload(run: Run, trace: bool, kind: str, args_for) -> dict:
    """Repeat one kind of pass for ``run.seconds`` (alternating untraced
    and traced passes under ``--trace 1``) and summarize the medians.

    Times are calibrated: each pass is divided by the mean host slowness
    measured on its CPU right before and right after it (hostspeed.py).
    """
    deadline = time.monotonic() + run.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    before = run.slowness()
    while (len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
           or time.monotonic() < deadline):
        with_trace = trace and len(traced) < len(plain)
        record = run.pass_(kind, *args_for(), trace=with_trace)
        after = run.slowness()
        record["slowness"] = (before + after) / 2.0
        before = after
        (traced if with_trace else plain).append(record)

    def median(records: list[dict], key: str) -> float:
        return statistics.median([r[key] / r["slowness"] for r in records])

    if not trace:
        wall = median(plain, "wall_s")
        raw = {key: statistics.median([r[key] for r in plain])
               for key in ("setup_s", "wall_s")}
        print(f"raw medians: {raw}", file=sys.stderr)
        return {
            "setup_s": median(plain, "setup_s"),
            "peak_rss_mb": statistics.median([r["rss_mb"] for r in plain]),
            "latency_p50_ms": wall * 1000.0,
            "throughput": plain[0]["attempted"] / wall,
        }
    per_pass = []
    for r in traced:
        values = layers.layer_metrics(r["layers"], r["registry"])
        values["unattributed_s"] = r["wall_s"] - r["layers"]["attributed_s"]
        values["unattributed_frac"] = values["unattributed_s"] / r["wall_s"]
        per_pass.append(values)
    out = {k: statistics.median([v[k] for v in per_pass]) for k in per_pass[0]}
    out["trace_overhead_frac"] = (
        median(traced, "wall_s") / median(plain, "wall_s") - 1.0)
    return out


def report_paper(run: Run, trace: bool) -> dict:
    return pass_workload(run, trace, "report", lambda: ())


def catalog_cold(run: Run, trace: bool) -> dict:
    return pass_workload(
        run, trace, "bundled", lambda: ("--cache", str(run.fresh_dir("c"))))


def catalog_warm(run: Run, trace: bool) -> dict:
    cache = run.fresh_dir("c")
    cold = run.dir / "cold.json"
    run.pass_("bundled", "--cache", str(cache), "--save", str(cold))
    return pass_workload(
        run, trace, "bundled",
        lambda: ("--cache", str(cache), "--expect", str(cold)))


def serve_mixed(run: Run, trace: bool) -> dict:
    import serve_mixed as serve

    return serve.measure(run, trace)


WORKLOADS = {
    "report-paper": report_paper,
    "catalog-cold": catalog_cold,
    "catalog-warm": catalog_warm,
    "serve-mixed": serve_mixed,
}


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # serve-mixed's client imports it
    declared = _declared(bool(args.trace))
    run = Run(root, args.seed, args.seconds)
    try:
        metrics = WORKLOADS[args.workload](run, bool(args.trace))
    finally:
        run.close()
    if set(metrics) != set(declared):
        print(f"error: measured {sorted(metrics)} but BENCHMARK.json "
              f"declares {sorted(declared)}", file=sys.stderr)
        return 2
    for line in run.errors[:20]:
        print(f"mismatch: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
