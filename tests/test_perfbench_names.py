"""The benchmark tracer wraps bzk callables and reads bzk caches by name;
every name it lists must still resolve, or `--trace 1` breaks silently."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_wrapped_callables_resolve():
    wrapped = _tracing().WRAPPED
    assert wrapped
    for name, (module, attr) in wrapped.items():
        assert module.startswith("bzk"), name
        assert callable(_resolve(module, attr)), name


def test_traced_caches_report_cache_info():
    caches = _tracing().CACHES
    assert caches
    for stem, (module, attr) in caches.items():
        info = _resolve(module, attr).cache_info()
        assert info.hits >= 0 and info.misses >= 0, stem
