"""The benchmark's span tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches library functions by name and silently
drops each per-layer metric whose name no longer resolves, which leaves a
traced benchmark run without those metrics.  A rename or deletion in the
library therefore has to fail here first.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        needed = {name for _, names in tracing.METRIC_NEEDS.values() for name in names}
        assert needed - tracer.present == set()
    finally:
        tracer.uninstall()


def test_enumeration_walks_partitions_under_the_tracer():
    import superweyl.atypical as atypical
    from superweyl.rootdata import build_sl
    from test_atypical import atypical_weight

    datum = build_sl(3, 2)
    ctx = atypical.atypical_context(datum, atypical_weight(datum, 2))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        atypical.enumeration_coefficient(ctx)
    finally:
        tracer.uninstall()
    assert tracer.calls["atypical.enum"] == 1
    assert tracer.calls["partitions.iter"] > 0
    assert tracer.counters["partitions.iter.yielded"] > 0
