"""The benchmark's tracer still finds every name it wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import beepsim

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_wraps_and_restore_puts_back():
    spans = load_spans()
    bs = SimpleNamespace(**{m.name: importlib.import_module(f"beepsim.{m.name}")
                            for m in pkgutil.iter_modules(beepsim.__path__)})
    tracer = spans.Tracer()
    try:
        spans.install(tracer, bs)  # raises KeyError on a deleted or renamed name
        patched = tracer.patched()
        assert patched
        assert all(vars(owner)[name] is not original for owner, name, original in patched)
    finally:
        tracer.restore()
    assert all(vars(owner)[name] is original for owner, name, original in patched)
