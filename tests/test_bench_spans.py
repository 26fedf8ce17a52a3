"""The benchmark's tracer still finds every name it wraps, and the layers
it wraps are still called."""

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


def beepsim_modules():
    return SimpleNamespace(**{m.name: importlib.import_module(f"beepsim.{m.name}")
                              for m in pkgutil.iter_modules(beepsim.__path__)})


def test_spans_install_wraps_and_restore_puts_back():
    spans = load_spans()
    bs = beepsim_modules()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, bs)  # raises KeyError on a deleted or renamed name
        patched = tracer.patched()
        assert patched
        assert all(vars(owner)[name] is not original for owner, name, original in patched)
    finally:
        tracer.restore()
    assert all(vars(owner)[name] is original for owner, name, original in patched)


def test_wrapped_layers_are_called(tmp_path, capsys):
    # a wrapped name the program stops calling would read 0, not fail
    spans = load_spans()
    bs = beepsim_modules()
    golden = Path(__file__).parent / "data" / "golden"
    tracer = spans.Tracer()
    try:
        spans.install(tracer, bs)
        assert bs.cli.main(["dynamic", "--graph", "star:17", "--events",
                            str(golden / "star17.events"), "--r", "4", "--max-periods", "24",
                            "--wakeup", "random", "--seed", "7",
                            "--out", str(tmp_path / "dyn.csv")]) == 0
        assert bs.cli.main(["static", "--protocol", "beepfirst", "--graph", "gnp:16:0.2",
                            "--out", str(tmp_path / "bf.csv")]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    metrics = tracer.metrics()
    idle = [name for name in ("runner.snapshot_s", "runner.observer_s",
                              "analysis.classify_calls", "analysis.validate_s", "trace.rows",
                              "jitterjump.calls", "beepfirst.resumes")
            if not metrics[name] > 0]
    assert idle == []

    # a static run whose nodes all wake at slot 0 takes the array path,
    # which hands its boundaries to the same pass
    arrays = spans.Tracer()
    try:
        spans.install(arrays, bs)
        assert bs.cli.main(["static", "--protocol", "jitterjump", "--graph", "random-regular",
                            "--n", "32", "--delta", "4", "--wakeup", "simultaneous",
                            "--seed", "7", "--json"]) == 0
    finally:
        arrays.restore()
    capsys.readouterr()
    assert arrays.metrics()["runner.observer_s"] > 0
    assert arrays.metrics()["jitterjump.calls"] == 0  # no per-node protocol ran
