"""serve-mixed: a closed-loop client against a real ``ucomplexity serve``.

The daemon runs in its own process (``--port 0 --jobs 2`` with a cache
directory of this run).  This process is the single client: CONNECTIONS
threads, one keep-alive connection each, and a thread sends its next
request only when the previous reply has arrived.  The seeded plan mixes

* ~70% ``/measure`` of a hot set of generated modules: memo hits;
* ~10% ``/measure`` of modules the daemon has never seen: misses, which go
  to the pool and are stored in the cache;
* ~20% ``/estimate`` on a few metric sets, whose fits are warmed first.

Every reply is checked after the daemon has stopped: ``/measure`` bodies
against each module's truth, ``/estimate`` bodies against an in-process
``DesignEffortEstimator`` fit.  A non-200 reply, a timeout or a
connection error is a failed request.

Latency and throughput are calibrated against the host's speed.  The
timed loop runs in SEGMENTS parts.  Before and after each, the daemon is
stopped (SIGSTOP) and two slownesses are measured: at round trips, by
driving ``nullserve.py`` (a daemon-shaped server that does none of the
program's work) with the same client loop for NULL_SECONDS, and at
computing, by hostspeed.py on the daemon's CPUs.  A miss in a part is
divided by the mean compute slowness around it, any other request by the
mean round-trip slowness.  Nothing the daemon does runs while the
calibration does.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import random
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import reference

CONNECTIONS = 2
JOBS = 2
HOT_MODULES = 32
MIX = {"hit": 0.70, "miss": 0.10, "estimate": 0.20}
ESTIMATE_SETS = (("Stmts",), ("FanInLC", "Stmts"), ("LoC", "Nets"))
ESTIMATE_BODIES = 64
#: Fresh modules generated per measured second: room for 1000 req/s.
MISSES_PER_SECOND = 100
#: Idle daemons started per untraced run; their median start-up is
#: ``setup_s``.
SETUP_SAMPLES = 5
SCRAPES = 5
#: The timed loop runs in SEGMENTS parts, with NULL_SECONDS of load on
#: nullserve.py before and after each; the stand-in's median latency on
#: the reference host.
SEGMENTS = 5
NULL_SECONDS = 1.0
REF_NULL_P50_MS = 0.75
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
EST_REL_TOL = 1e-9


class Daemon:
    """One ``ucomplexity serve`` process, ready once ``/healthz`` says 200."""

    def __init__(self, run, traced: bool, pinned: bool = False) -> None:
        self.traced = traced
        self.cache = run.fresh_dir("serve-cache")
        self.layers_out = self.cache.with_suffix(".layers.json")
        self._snapshots = 0
        cli = ["serve", "--port", "0", "--jobs", str(JOBS),
               "--cache-dir", str(self.cache)]
        if traced:
            cmd = [sys.executable, str(Path("perfbench") / "passes.py"),
                   "daemon", "--layers-out", str(self.layers_out), "--",
                   *cli]
        else:
            cmd = [sys.executable, "-m", "repro", *cli]
        self._stderr = open(self.cache.with_suffix(".stderr"), "w")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=run.root, env=run.env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
            preexec_fn=run.pin if pinned else None,
        )
        try:
            self.host, self.port = _await_listening(self.proc, spawned)
            self._await_healthy(spawned)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def _await_healthy(self, spawned: float) -> None:
        while time.monotonic() < spawned + START_TIMEOUT_S:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("daemon never became healthy")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> tuple[int, bytes]:
        conn = self.connect()
        try:
            return request(conn, "GET", path)
        finally:
            conn.close()

    def window_mark(self) -> tuple[dict, dict | None]:
        """The daemon's registry counters and, when traced, its layer
        snapshot (written on SIGUSR1, see passes.py), as of now."""
        status, data = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: status {status}")
        registry = layers.registry_view(json.loads(data)["metrics"])
        if not self.traced:
            return registry, None
        path = Path(f"{self.layers_out}.{self._snapshots}")
        self._snapshots += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("daemon wrote no layer snapshot")
            time.sleep(0.01)
        return registry, json.loads(path.read_text())

    def status_mb(self, field: str) -> float:
        """``VmRSS`` / ``VmHWM`` of the daemon process, in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"{field} not in /proc status")

    def stop(self) -> int | None:
        """SIGTERM, then wait; the exit code (None if it had to be killed)."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return None
        finally:
            self.proc.stdout.close()
            self._stderr.close()


def _await_listening(proc: subprocess.Popen, spawned: float) -> tuple[str, int]:
    """(host, port) from a server's ``listening on http://HOST:PORT`` line."""
    while True:
        left = spawned + START_TIMEOUT_S - time.monotonic()
        ready, _, _ = select.select([proc.stdout], [], [], max(left, 0))
        if not ready:
            raise RuntimeError("server did not announce its port")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited {proc.wait()}")
        if line.startswith("listening on http://"):
            host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
            return host, int(port)


def request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.read()


class Plan:
    """The seeded request sequence; ``next()`` is safe across threads."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.data.paper import paper_dataset
        from repro.gen import generate_corpus

        def corpus(prefix: str, count: int, base: int):
            half = count // 2
            return (generate_corpus("verilog", half, seed=base,
                                    name_prefix=prefix)
                    + generate_corpus("vhdl", count - half, seed=base + 1,
                                      name_prefix=prefix))

        self.rng = random.Random(seed)
        self.hot = corpus("hot", HOT_MODULES, 4 * seed)
        self.fresh = corpus("new", int(MISSES_PER_SECOND * seconds) + 1,
                            4 * seed + 2)
        self.rng.shuffle(self.fresh)
        self.truth = {gm.name: gm.truth for gm in self.hot + self.fresh}
        self.bodies = {gm.name: measure_body(gm)
                       for gm in self.hot + self.fresh}
        data = paper_dataset()
        teams = [None, *data.teams]
        self.estimates = []
        for i in range(ESTIMATE_BODIES):
            names = ESTIMATE_SETS[i % len(ESTIMATE_SETS)]
            metrics = {}
            for m in names:
                values = [r.metrics[m] for r in data.records]
                metrics[m] = float(round(self.rng.uniform(min(values),
                                                          max(values))))
            body = {"metrics": metrics}
            team = self.rng.choice(teams)
            if team is not None:
                body["team"] = team
            self.estimates.append(json.dumps(body).encode())
        self._fresh = iter(self.fresh)
        self._lock = threading.Lock()

    def next(self):
        """(kind, key, path, body), or None once fresh modules run out."""
        with self._lock:
            kind = self.rng.choices(list(MIX), weights=list(MIX.values()))[0]
            if kind == "estimate":
                body = self.rng.choice(self.estimates)
                return kind, body, "/estimate", body
            if kind == "hit":
                gm = self.rng.choice(self.hot)
            else:
                gm = next(self._fresh, None)
                if gm is None:
                    return None
            return kind, gm.name, "/measure", self.bodies[gm.name]

    def warmup(self):
        """Every hot module and one request per estimate set."""
        for gm in self.hot:
            yield "warm", gm.name, "/measure", self.bodies[gm.name]
        for body in self.estimates[:len(ESTIMATE_SETS)]:
            yield "warm", body, "/estimate", body


def measure_body(gm) -> bytes:
    src = gm.sources[0]
    return json.dumps({
        "files": [{"name": src.name, "text": src.text}],
        "top": gm.name,
        "name": gm.name,
        "accounting": False,  # the policy generated truths assume
    }).encode()


def send(conn_factory, items, records: list, deadline: float | None) -> None:
    """Closed loop over ``items`` on one keep-alive connection."""
    conn = conn_factory()
    try:
        for kind, key, path, body in items:
            t0 = time.perf_counter()
            try:
                status, data = request(conn, "POST", path, body)
            except (OSError, http.client.HTTPException):
                status, data = None, b""
                conn.close()
                conn = conn_factory()
            records.append((kind, key, path, status,
                            time.perf_counter() - t0, data))
            if deadline is not None and time.monotonic() >= deadline:
                break
    finally:
        conn.close()


def closed_loop(conn_factory, items, records: list, seconds: float) -> float:
    """CONNECTIONS threads sending ``items`` for ``seconds``; the elapsed
    time."""
    deadline = time.monotonic() + seconds
    threads = [
        threading.Thread(target=send,
                         args=(conn_factory, items, records, deadline))
        for _ in range(CONNECTIONS)
    ]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.monotonic() - t0


class NullServer:
    """nullserve.py, the stand-in the host's slowness is measured with
    (1.0 on the reference host)."""

    def __init__(self, run, plan: Plan) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(Path("perfbench") / "nullserve.py")],
            cwd=run.root, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.host, self.port = _await_listening(self.proc, time.monotonic())
        except BaseException:
            self.stop()
            raise
        self._items = itertools.cycle(list(plan.warmup()))

    def slowness(self, run, daemon: Daemon) -> tuple[float, float]:
        """The host's slowness at round trips and at computing, measured
        while ``daemon`` is stopped (SIGSTOP), so none of its work
        competes: the stand-in's median latency over the reference
        host's, and hostspeed.py's mean over the daemon's CPUs."""
        records: list = []
        daemon.proc.send_signal(signal.SIGSTOP)
        try:
            closed_loop(
                lambda: http.client.HTTPConnection(self.host, self.port,
                                                   timeout=REQUEST_TIMEOUT_S),
                self._items, records, NULL_SECONDS)
            compute = statistics.mean(run.slowness_each(JOBS))
        finally:
            daemon.proc.send_signal(signal.SIGCONT)
        if any(r[3] != 200 for r in records):
            raise RuntimeError("nullserve.py failed a request")
        trip = _percentile([r[4] for r in records], 0.5) / REF_NULL_P50_MS
        return trip, compute

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()


def _plan_items(plan: Plan):
    while (item := plan.next()) is not None:
        yield item


def drive(run, daemon: Daemon, plan: Plan, seconds: float,
          null: NullServer | None = None) -> dict:
    """Warm up, then run the timed closed loop; stats of the daemon.

    With ``null``, the loop runs in SEGMENTS parts, and the host's
    slownesses are measured before and after each; ``ref_latencies`` and
    ``ref_elapsed`` are the timings calibrated by them (module docstring).
    ``registry`` and ``layers`` cover the timed loop only: differences of
    the daemon's counters and layer times across it.
    """
    warm: list = []
    send(daemon.connect, plan.warmup(), warm, None)
    rss_before = daemon.status_mb("VmRSS")
    registry0, layers0 = daemon.window_mark()
    timed: list = []
    elapsed = ref_elapsed = 0.0
    ref_latencies: list[float] = []
    segments = SEGMENTS if null else 1
    before = null.slowness(run, daemon) if null else (1.0, 1.0)
    for _ in range(segments):
        records: list = []
        part = closed_loop(daemon.connect, _plan_items(plan), records,
                           seconds / segments)
        after = null.slowness(run, daemon) if null else (1.0, 1.0)
        trip, compute = ((b + a) / 2.0 for b, a in zip(before, after))
        before = after
        # A miss waits on pool work, every other request on a round trip.
        scaled = [r[4] / (compute if r[0] == "miss" else trip)
                  for r in records]
        timed += records
        elapsed += part
        ref_elapsed += part * sum(scaled) / sum(r[4] for r in records)
        ref_latencies += scaled
    rss_after = daemon.status_mb("VmRSS")
    registry1, layers1 = daemon.window_mark()
    scrapes = []
    for _ in range(SCRAPES):
        t = time.perf_counter()
        daemon.get("/metrics")
        scrapes.append(time.perf_counter() - t)
    return {
        "warm": warm, "timed": timed, "elapsed": elapsed,
        "ref_latencies": ref_latencies, "ref_elapsed": ref_elapsed,
        "peak_rss_mb": daemon.status_mb("VmHWM"),
        "rss_growth_mb": rss_after - rss_before,
        "scrape_ms": sorted(scrapes)[len(scrapes) // 2] * 1000.0,
        "registry": layers.registry_delta(registry1, registry0),
        "layers": (layers.snapshot_delta(layers1, layers0)
                   if daemon.traced else None),
    }


class Checker:
    """Verdicts on replies, memoized per distinct (request, body)."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self._fits: dict = {}
        self._seen: dict = {}

    def errors(self, key, path: str, status, data: bytes) -> list[str]:
        if status != 200:
            return [f"{path} {key if path == '/measure' else ''}: "
                    f"status {status}"]
        memo = (key, data)
        if memo not in self._seen:
            check = self._measure if path == "/measure" else self._estimate
            self._seen[memo] = check(key, json.loads(data))
        return self._seen[memo]

    def _measure(self, name: str, payload: dict) -> list[str]:
        if payload.get("exit_code") != 0 or payload.get("component") is None:
            return [f"{name}: exit code {payload.get('exit_code')}"]
        return reference.check_truth(payload["component"]["metrics"],
                                     self.plan.truth[name], name)

    def _estimate(self, body: bytes, payload: dict) -> list[str]:
        from repro.core.estimator import DesignEffortEstimator
        from repro.data.paper import paper_dataset

        req = json.loads(body)
        if payload.get("exit_code") != 0:
            return [f"/estimate {req}: exit code {payload.get('exit_code')}"]
        names = tuple(sorted(req["metrics"]))
        if names not in self._fits:
            self._fits[names] = DesignEffortEstimator.fit(
                paper_dataset(), list(names), productivity_adjustment=True,
                robust=True)
        est = self._fits[names]
        team = req.get("team")
        want = [est.estimate(req["metrics"], team=team),
                *est.interval(req["metrics"], team=team)]
        got = [payload.get("median"), *payload.get("interval", [None, None])]
        if all(g is not None and math.isclose(g, w, rel_tol=EST_REL_TOL)
               for g, w in zip(got, want)):
            return []
        return [f"/estimate {req}: {got} != {want}"]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile in milliseconds; 0 with no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000.0


def _session(run, plan: Plan, checker: Checker, traced: bool,
             seconds: float, null: NullServer | None = None) -> dict:
    """Start a daemon, drive it, stop it and check every reply."""
    daemon = Daemon(run, traced)
    try:
        stats = drive(run, daemon, plan, seconds, null)
    finally:
        code = daemon.stop()
    failed, errors = 0, []
    if code != 0:
        failed, errors = 1, [f"daemon exited {code} on SIGTERM"]
    records = stats["warm"] + stats["timed"]
    for _kind, key, path, status, _dt, data in records:
        errs = checker.errors(key, path, status, data)
        failed += bool(errs)
        errors += errs
    run.tally(len(records), failed, errors)
    return stats


def _setup_s(run) -> float:
    """Median start-up of idle daemons, each pinned to the run's CPU and
    calibrated like a single-process pass (run.py, hostspeed.py)."""
    setups = []
    before = run.slowness()
    for _ in range(SETUP_SAMPLES):
        daemon = Daemon(run, traced=False, pinned=True)
        code = daemon.stop()
        run.tally(1, int(code != 0),
                  [] if code == 0 else [f"idle daemon exited {code}"])
        after = run.slowness()
        setups.append(daemon.setup_s / ((before + after) / 2.0))
        before = after
    return statistics.median(setups)


def measure(run, trace: bool) -> dict:
    """The end-to-end (or, traced, the per-layer) metrics of one run."""
    plan = Plan(run.seed, run.seconds)
    checker = Checker(plan)
    if not trace:
        setup_s = _setup_s(run)
        null = NullServer(run, plan)
        try:
            stats = _session(run, plan, checker, False, run.seconds, null)
        finally:
            null.stop()
        lat = [r[4] for r in stats["timed"]]
        print(f"raw: latency_p50_ms {_percentile(lat, 0.50)}, "
              f"throughput {len(lat) / stats['elapsed']}", file=sys.stderr)
        return {
            "setup_s": setup_s,
            "peak_rss_mb": stats["peak_rss_mb"],
            "latency_p50_ms": _percentile(stats["ref_latencies"], 0.50),
            "throughput": len(lat) / stats["ref_elapsed"],
        }
    # Traced: half the time untraced (the overhead baseline), half traced.
    plain = _session(run, plan, checker, False, run.seconds / 2)
    stats = _session(run, plan, checker, True, run.seconds / 2)
    out = layers.layer_metrics(stats["layers"], stats["registry"])
    timed = stats["timed"]
    by_kind = {k: [r[4] for r in timed if r[0] == k] for k in MIX}
    reg = stats["registry"]
    batches = reg.get("serve.batch_size.count", 0.0)
    out.update({
        "serve.requests": float(len(timed)),
        "serve.hit_p50_ms": _percentile(by_kind["hit"], 0.5),
        "serve.miss_p50_ms": _percentile(by_kind["miss"], 0.5),
        "serve.estimate_p50_ms": _percentile(by_kind["estimate"], 0.5),
        "serve.p99_ms": _percentile([r[4] for r in timed], 0.99),
        "serve.batch_size_mean":
            reg.get("serve.batch_size.sum", 0.0) / batches if batches else 0.0,
        "serve.metrics_scrape_ms": stats["scrape_ms"],
        "serve.rss_growth_mb": stats["rss_growth_mb"],
    })
    out["unattributed_s"] = stats["elapsed"] - stats["layers"]["attributed_s"]
    out["unattributed_frac"] = out["unattributed_s"] / stats["elapsed"]
    plain_rps = len(plain["timed"]) / plain["elapsed"]
    traced_rps = len(timed) / stats["elapsed"]
    out["trace_overhead_frac"] = plain_rps / traced_rps - 1.0
    return out
