"""Loading and measuring the bundled designs."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.accounting import AccountingPolicy
from repro.core.workflow import ComponentMeasurement
from repro.data.dataset import EffortDataset, EffortRecord
from repro.designs.catalog import CATALOG, ComponentSpec, component_specs
from repro.hdl.source import SourceFile

if TYPE_CHECKING:
    from repro.cache import SynthesisCache

_RTL_ROOT = Path(__file__).parent / "rtl"


def load_sources(spec: ComponentSpec) -> list[SourceFile]:
    """Read a component's RTL files from the package data."""
    return [SourceFile.from_path(_RTL_ROOT / rel) for rel in spec.files]


def measure_catalog(
    policy: AccountingPolicy = AccountingPolicy.recommended(),
    designs: tuple[str, ...] | None = None,
    jobs: int = 1,
    cache: "SynthesisCache | None" = None,
) -> dict[str, ComponentMeasurement]:
    """Measure every bundled component under one accounting policy.

    Returns component label -> measurement, in catalog order.  ``jobs > 1``
    fans the components out over a process pool; ``cache`` memoizes
    synthesis products and whole measurements, so a rerun over the
    unchanged catalog is served from the cache.  The bundled RTL is trusted, so a failure raises (strict mode)
    either way rather than quarantining.

    Thin wrapper over :meth:`repro.core.engine.Engine.measure_catalog`.
    """
    from repro.core.engine import Engine

    return Engine(cache=cache, jobs=jobs).measure_catalog(
        policy=policy, designs=designs,
    )


def measured_dataset(
    policy: AccountingPolicy = AccountingPolicy.recommended(),
    jobs: int = 1,
    cache: "SynthesisCache | None" = None,
) -> EffortDataset:
    """The bundled designs as an effort dataset.

    Efforts are the paper's reported person-months (Table 2); metrics are
    *our* measurements of the bundled RTL through the full pipeline.  This
    dataset drives the accounting-procedure ablation (Figure 6) and the
    end-to-end examples.
    """
    measurements = measure_catalog(policy, jobs=jobs, cache=cache)
    records = []
    for spec in component_specs():
        m = measurements[spec.label]
        records.append(
            EffortRecord(
                team=spec.design,
                component=spec.name,
                effort=spec.effort,
                metrics=dict(m.metrics),
            )
        )
    return EffortDataset(tuple(records))
