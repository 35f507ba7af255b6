"""Refactor-equivalence suite for :class:`repro.core.engine.Engine`.

The Engine refactor moved the pipeline entry points from free functions
into a long-lived object so the CLI and the serve daemon share one code
path.  These tests pin the contract: going through an Engine -- any
combination of cache, jobs, and pool forcing -- produces results
byte-identical (``pickle.dumps``) to the original per-call functions,
quarantined components included.
"""

import pickle

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import (
    ComponentSpec,
    measure_component,
    measure_component_safe,
    measure_components,
)
from repro.designs.loader import load_sources, measure_catalog
from repro.hdl.source import SourceFile
from repro.runtime.faultinject import truncate_source

_ADDER = SourceFile(
    "adder.v",
    """
    module top_adder #(parameter W = 8)(input [W-1:0] a, b,
                                        output [W-1:0] s);
      assign s = a + b;
    endmodule
    """,
)

_MUX = SourceFile(
    "mux.v",
    """
    module top_mux #(parameter W = 4)(input sel, input [W-1:0] a, b,
                                      output [W-1:0] y);
      assign y = sel ? a : b;
    endmodule
    """,
)


def _specs():
    return [
        ComponentSpec("adder", (_ADDER,), "top_adder"),
        ComponentSpec("mux", (_MUX,), "top_mux"),
        ComponentSpec(
            "corrupt", (truncate_source(_ADDER, 0.5),), "top_adder"
        ),
    ]


def _same_batch(reference, candidate):
    assert list(candidate.results) == list(reference.results)
    for name, result in reference.results.items():
        assert pickle.dumps(candidate.results[name]) == pickle.dumps(result), name


class TestEngineEquivalence:
    def test_measure_component_matches_free_function(self):
        via_function = measure_component([_ADDER], "top_adder", name="adder")
        via_engine = Engine().measure_component(
            [_ADDER], "top_adder", name="adder"
        )
        assert pickle.dumps(via_engine) == pickle.dumps(via_function)

    def test_measure_component_safe_matches_free_function(self):
        corrupt = truncate_source(_ADDER, 0.5)
        for sources, top in ([_ADDER], "top_adder"), ([corrupt], "top_adder"):
            via_function = measure_component_safe(list(sources), top)
            via_engine = Engine().measure_component_safe(list(sources), top)
            assert pickle.dumps(via_engine) == pickle.dumps(via_function)

    def test_measure_components_sequential_matches(self, tmp_path):
        via_function = measure_components(
            _specs(), cache=SynthesisCache(tmp_path / "a")
        )
        engine = Engine(cache=SynthesisCache(tmp_path / "b"))
        _same_batch(via_function, engine.measure_components(_specs()))

    def test_measure_components_pool_matches_sequential(self, tmp_path):
        sequential = Engine().measure_components(_specs())
        pooled = Engine(
            cache=SynthesisCache(tmp_path / "cache"), jobs=4
        ).measure_components(_specs())
        _same_batch(sequential, pooled)

    def test_forced_pool_single_spec_matches_inline(self):
        spec = _specs()[0]
        inline = Engine().measure_components([spec], pool=False)
        forced = Engine().measure_components([spec], pool=True)
        _same_batch(inline, forced)

    def test_warm_engine_reuse_is_stable(self, tmp_path):
        engine = Engine(cache=SynthesisCache(tmp_path / "cache"))
        cold = engine.measure_components(_specs())
        warm = engine.measure_components(_specs())
        _same_batch(cold, warm)

    def test_measure_catalog_matches_loader(self, tmp_path):
        via_loader = measure_catalog(designs=("PUMA",))
        via_engine = Engine(
            cache=SynthesisCache(tmp_path / "cache")
        ).measure_catalog(designs=("PUMA",))
        assert list(via_engine) == list(via_loader)
        for label, measurement in via_loader.items():
            assert pickle.dumps(via_engine[label]) == pickle.dumps(measurement)

    def test_measure_catalog_matches_per_component_measures(self):
        from repro.designs.catalog import component_specs

        via_engine = Engine().measure_catalog(designs=("PUMA",))
        for spec in component_specs():
            if spec.design != "PUMA":
                continue
            direct = measure_component(
                load_sources(spec), spec.top, name=spec.label
            )
            assert pickle.dumps(via_engine[spec.label]) == pickle.dumps(direct)

    def test_lint_matches_free_function(self):
        from repro.lint import lint_sources

        via_function = lint_sources([_ADDER, _MUX])
        via_engine = Engine().lint([_ADDER, _MUX])
        assert pickle.dumps(via_engine) == pickle.dumps(via_function)

    def test_fit_estimator_memoizes(self):
        from repro.data.paper import paper_dataset

        engine = Engine()
        dataset = paper_dataset()
        first = engine.fit_estimator(
            dataset, ["Stmts", "FanInLC"], dataset_key="paper"
        )
        again = engine.fit_estimator(
            dataset, ["Stmts", "FanInLC"], dataset_key="paper"
        )
        assert again is first
        assert engine.stats()["cached_fits"] == 1


class TestSingleMeasurementPath:
    def test_sequential_catalog_is_served_from_the_memo(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        engine = Engine(jobs=1, cache=SynthesisCache(tmp_path / "cache"))
        cold = engine.measure_catalog(designs=("PUMA",))
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            warm = engine.measure_catalog(designs=("PUMA",))
        counters = registry.snapshot()["counters"]

        assert counters["cache.measure_hits"] == len(cold)
        assert counters.get("hdl.files_parsed", 0.0) == 0.0
        assert list(warm) == list(cold)
        for label, measurement in cold.items():
            assert warm[label].metrics == measurement.metrics, label
