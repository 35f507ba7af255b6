"""Host-speed calibration for the single-process passes.

On a shared host the speed of Python code drifts by tens of percent over
minutes, so a run's raw median reflects the neighbours as much as the
program.  Between timed passes, ``run.py`` starts this file in an
interpreter of its own (``python3 -I perfbench/hostspeed.py``: isolated,
so it never imports the program) and reads one number from it: the
host's current slowness, 1.0 on the reference host.  The calibration
times two fixed workloads -- the standard library's pure-Python pickler
round-tripping nested dicts, and an ``ast.NodeVisitor`` walk over
generated source -- with the collector off.  A pass is reported as its
raw time divided by the mean slowness measured right before and right
after it: the time the pass would take on the reference host.

Because the calibration runs outside the program's interpreter, nothing
the program does to its own interpreter (a background thread holding the
GIL, a profiling hook, import-time patching) slows the calibration: such
a regression reads slower, by its full factor.  ``run.py`` prints the raw
medians to standard error.
"""

from __future__ import annotations

import ast
import gc
import pickle
import time

#: Median calibration times on the reference host (2 vCPUs, Python 3.11).
REF_PICKLE_S = 0.12
REF_AST_S = 0.06


class _Names(ast.NodeVisitor):
    def __init__(self) -> None:
        self.seen: dict[str, int] = {}

    def visit_Name(self, node: ast.Name) -> None:
        self.seen[node.id] = self.seen.get(node.id, 0) + 1


def slowness() -> float:
    """This host's current slowness; 1.0 on the reference host."""
    data = [{"name": f"n{i}", "vals": list(range(i % 7)), "key": (i, str(i))}
            for i in range(3000)]
    tree = ast.parse("\n".join(
        f"def f{i}(a, b):\n    c = a * {i} + b\n    return [c, f{i}(b, c)]"
        for i in range(300)
    ))
    gc.disable()
    t0 = time.perf_counter()
    pickle._loads(pickle._dumps(data))
    t1 = time.perf_counter()
    for _ in range(5):
        _Names().visit(tree)
    t2 = time.perf_counter()
    return ((t1 - t0) / REF_PICKLE_S + (t2 - t1) / REF_AST_S) / 2.0


if __name__ == "__main__":
    print(repr(slowness()))
