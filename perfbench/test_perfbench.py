"""Self-tests of the benchmark's tracer and metric tables.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.a defines functions and a class; pkg.b imports one function by name."""
    a = types.ModuleType("pkg.a")
    exec(
        "def leaf(x):\n"
        "    return x + 1\n"
        "def outer(x):\n"
        "    return leaf(x) + leaf(x)\n"
        "def _private(x):\n"
        "    return x\n"
        "class Thing:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    @classmethod\n"
        "    def make(cls, v):\n"
        "        return cls(v)\n"
        "    def value(self):\n"
        "        return leaf(self.v)\n",
        a.__dict__,
    )
    for obj in (a.leaf, a.outer, a._private, a.Thing):
        obj.__module__ = "pkg.a"
    b = types.ModuleType("pkg.b")
    b.leaf = a.leaf
    pkg = types.ModuleType("pkg")
    for name, mod in (("pkg", pkg), ("pkg.a", a), ("pkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b


def test_install_wraps_every_binding_and_uninstall_restores(fake_package):
    a, b = fake_package
    originals = (a.leaf, a.outer, a._private, vars(a.Thing)["make"], vars(a.Thing)["value"])
    tracer = Tracer()
    names = tracer.install("pkg")
    assert sorted(names) == ["a.Thing.make", "a.Thing.value", "a.leaf", "a.outer"]
    assert a.leaf is b.leaf and a.leaf is not originals[0]
    assert a._private is originals[2]

    assert b.leaf(1) == 2
    assert a.outer(1) == 4
    assert a.Thing.make(5).value() == 6
    called = [span[0] for span in tracer.spans]
    assert called == ["a.leaf", "a.outer", "a.leaf", "a.leaf",
                      "a.Thing.make", "a.Thing.value", "a.leaf"]
    assert [span[3] for span in tracer.spans] == [-1, -1, 1, 1, -1, -1, 5]

    tracer.uninstall()
    assert (a.leaf, a.outer, a._private, vars(a.Thing)["make"], vars(a.Thing)["value"]) == originals
    assert b.leaf is originals[0]


def test_self_time_is_span_minus_child_spans(fake_package):
    a, _ = fake_package
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install("pkg")
    a.outer(1)
    tracer.uninstall()
    # outer starts at 0; leaf spans are [1, 2] and [3, 4]; outer ends at 5
    assert [span[1:3] for span in tracer.spans] == [[0.0, 5.0], [1.0, 2.0], [3.0, 4.0]]
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]
    assert self_times([["x", 0.0, 10.0, -1], ["y", 1.0, 4.0, 0], ["z", 2.0, 3.0, 1]]) == [7.0, 2.0, 1.0]


def test_hook_sees_result_and_exception(fake_package):
    a, _ = fake_package
    seen = []
    tracer = Tracer()
    tracer.hooks["a.leaf"] = lambda args, result, exc: seen.append((args, result, exc))
    tracer.install("pkg")
    a.leaf(1)
    with pytest.raises(TypeError):
        a.leaf(None)
    tracer.uninstall()
    assert seen[0] == ((1,), 2, None)
    assert isinstance(seen[1][2], TypeError)
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_real_package_bindings_restored():
    import ozolasso.cli  # noqa: F401  (imports every module of the package)
    from ozolasso import expansion, pipeline, selection, solvers

    before = {
        "selection.design_block": selection.design_block,
        "pipeline.build_base_features": pipeline.build_base_features,
        "fit": vars(expansion.ExpandedDesign)["fit"],
        "block": vars(expansion.ExpandedDesign)["block"],
    }
    tracer = Tracer()
    names = tracer.install("ozolasso")
    assert {"solvers.design_block", "features.build_base_features",
            "expansion.ExpandedDesign.fit", "expansion.ExpandedDesign.block"} <= set(names)
    assert selection.design_block is solvers.design_block is not before["selection.design_block"]
    assert isinstance(vars(expansion.ExpandedDesign)["fit"], classmethod)
    tracer.uninstall()
    assert selection.design_block is before["selection.design_block"]
    assert pipeline.build_base_features is before["pipeline.build_base_features"]
    assert vars(expansion.ExpandedDesign)["fit"] is before["fit"]
    assert vars(expansion.ExpandedDesign)["block"] is before["block"]


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
