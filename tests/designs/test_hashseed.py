"""Bundled measurements must not depend on Python's string hashing.

FanInLC comes from greedy LUT packing, which follows netlist order; when
synthesis iterated a ``set`` of signal names, that order (and the metric)
changed with ``PYTHONHASHSEED``.  Each seed needs a fresh interpreter, so
the components are measured in subprocesses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: The bundled components whose FanInLC used to vary with the hash seed.
_COMPONENTS = ("Leon3-Pipeline", "IVM-Retire")

_SCRIPT = """
import json, sys
from repro.core.engine import Engine
from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources

engine = Engine()
out = {}
for spec in component_specs():
    if spec.label in sys.argv[1:]:
        m = engine.measure_component(
            load_sources(spec), spec.top, name=spec.label
        )
        out[spec.label] = m.metrics["FanInLC"]
print(json.dumps(out))
"""


def _fanin(seed: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(repro.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *_COMPONENTS],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_fanin_lc_is_independent_of_hash_seed():
    first, second = _fanin("1"), _fanin("2")
    assert set(first) == set(_COMPONENTS)
    assert first == second
