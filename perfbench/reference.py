"""Fixed references that every benchmark run checks its outputs against.

A mismatch is a failed operation, never a warning.

* Table 4: the "ours" columns of EXPERIMENTS.md (not the paper's column:
  AreaS is 2.07 there and 2.08 here).  Values are compared as numbers with
  an absolute tolerance of half a printed digit plus fitter slack, never as
  rounded strings (AreaS is 2.07506, so a 1e-5 fitter change would flip
  its rounding).
* Bundled components: Table 3 metrics captured from the program by
  ``python3 perfbench/reference.py --capture``.  Bundled FanInLC is left
  out: it depends on the interpreter's hash seed (see README.md, "Known
  defect"), and the benchmark must not pin ``PYTHONHASHSEED`` to hide that.
* Generated modules: the truth each module carries by construction.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Mapping

#: The Table 3 metrics; flow families are not compared, so computing them
#: only on request does not read as wrong output.
TABLE3 = ("LoC", "Stmts", "FanInLC", "Nets", "Cells", "AreaL", "AreaS",
          "PowerD", "PowerS", "Freq", "FFs")
INTEGER_METRICS = frozenset({"LoC", "Stmts", "FanInLC", "Nets", "Cells",
                             "FFs"})
#: Float metrics sum cell values in netlist order, which can move their
#: last bits between interpreters.
FLOAT_REL_TOL = 1e-9
#: Bundled FanInLC varies with the hash seed; restore it here once fixed.
GOLDEN_METRICS = tuple(m for m in TABLE3 if m != "FanInLC")
GOLDEN_PATH = Path(__file__).with_name("golden_bundled.json")

#: EXPERIMENTS.md Table 4 "ours" columns: (sigma_eps, sigma_eps at rho=1).
TABLE4_OURS: dict[str, tuple[float, float]] = {
    "DEE1": (0.46, 0.53),
    "Stmts": (0.50, 0.60),
    "LoC": (0.55, 0.69),
    "FanInLC": (0.55, 0.82),
    "Nets": (0.67, 1.08),
    "Freq": (0.94, 1.12),
    "AreaL": (1.23, 1.35),
    "PowerD": (1.34, 1.82),
    "PowerS": (1.44, 3.21),
    "AreaS": (2.08, 2.08),
    "Cells": (2.09, 2.55),
    "FFs": (2.14, 2.18),
}
SIGMA_TOL = 0.006
#: EXPERIMENTS.md information criteria "ours": (AIC, BIC), one decimal.
CRITERIA_OURS: dict[str, tuple[float, float]] = {
    "DEE1": (34.9, 38.4),
    "Stmts": (37.0, 39.7),
}
CRITERIA_TOL = 0.06


def _close(got: float, want: float, rel: float) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=0.0)


def check_table4(result) -> list[str]:
    """Mismatches of an ``EvaluationResult`` against Table 4."""
    errors = []
    for name, (mixed, fixed) in TABLE4_OURS.items():
        for table, want in ((result.mixed, mixed), (result.fixed, fixed)):
            acc = table.get(name)
            if acc is None or abs(acc.sigma_eps - want) > SIGMA_TOL:
                got = None if acc is None else acc.sigma_eps
                errors.append(f"Table 4 {name}: sigma_eps {got} != {want}")
    for name, (aic, bic) in CRITERIA_OURS.items():
        acc = result.mixed.get(name)
        if acc is None or abs(acc.aic - aic) > CRITERIA_TOL \
                or abs(acc.bic - bic) > CRITERIA_TOL:
            got = None if acc is None else (acc.aic, acc.bic)
            errors.append(f"{name} AIC/BIC {got} != {aic}/{bic}")
    return errors


def compare_metrics(
    got: Mapping[str, Mapping[str, float]],
    want: Mapping[str, Mapping[str, float]],
    metrics: tuple[str, ...],
    label: str,
) -> dict[str, list[str]]:
    """Component -> mismatches; integer metrics must be equal, float
    metrics within ``FLOAT_REL_TOL``.  A missing component mismatches."""
    errors: dict[str, list[str]] = {}
    for comp in set(got) ^ set(want):
        errors[comp] = [f"{label}: {comp} missing on one side"]
    for comp, ref in want.items():
        if comp not in got:
            continue
        for m in metrics:
            a, b = got[comp].get(m), ref[m]
            ok = a is not None and (
                a == b if m in INTEGER_METRICS else _close(a, b, FLOAT_REL_TOL)
            )
            if not ok:
                errors.setdefault(comp, []).append(
                    f"{label}: {comp} {m} {a} != {b}")
    return errors


def check_bundled(
    got: Mapping[str, Mapping[str, float]],
) -> dict[str, list[str]]:
    golden = json.loads(GOLDEN_PATH.read_text())
    return compare_metrics(got, golden, GOLDEN_METRICS, "golden")


def check_truth(metrics: Mapping[str, float] | None,
                truth: Mapping[str, float], name: str) -> list[str]:
    """A generated module's oracle metrics must equal its truth exactly."""
    from repro.gen import ORACLE_METRICS

    if metrics is None:
        return [f"{name}: no measurement"]
    return [
        f"{name} {m}: {metrics.get(m)} != {truth[m]}"
        for m in ORACLE_METRICS
        if metrics.get(m) != truth[m]
    ]


def table3(measurements) -> dict[str, dict[str, float]]:
    """Component label -> Table 3 metrics of ``measure_catalog`` output."""
    return {
        label: {m: float(cm.metrics[m]) for m in TABLE3}
        for label, cm in measurements.items()
    }


def capture() -> None:
    """Re-measure the bundled catalog and rewrite the golden file."""
    from repro.core.engine import Engine

    out = Engine(jobs=1).measure_catalog()
    golden = {
        label: {m: v for m, v in metrics.items() if m in GOLDEN_METRICS}
        for label, metrics in table3(out).items()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python3 perfbench/reference.py --capture "
                 "(run from the repository root)")
    sys.path.insert(0, str(Path.cwd() / "src"))
    capture()
