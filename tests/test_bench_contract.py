"""The names and return values the benchmark (``perfbench/``) relies on.

``perfbench/run.py`` traces the functions it lists by name and counts the
calls of the names in its ``COUNTS`` table; ``perfbench/child.py`` reads
``len(parse_hourly_file(...).records)`` as rows parsed and
``len(build_base_features(...)[0])`` as rows built, and its hooks read
attributes such as ``sweeps_used`` and ``grid`` from return values. A rename
or a changed return type would leave those metrics empty without failing
the benchmark.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import typing
from collections import Counter
from pathlib import Path

import pytest

from ozolasso import ingest, pipeline, solvers, synth
from ozolasso.cli import main
from ozolasso.config import RunConfig
from ozolasso.solvers import LassoConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def assigned(path: Path, name: str):
    """The literal value of a module-level assignment, read without importing."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} has no {name}")


def traced_names() -> list[str]:
    run = PERFBENCH / "run.py"
    calls = [key[: -len(".calls")] for key in assigned(run, "COUNTS") if key.endswith(".calls")]
    return list(assigned(run, "FUNCTIONS")) + calls


def child_hooks(counts: Counter) -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child._layer_hooks(counts, Counter())


# Traced names whose functions the program no longer has: their metrics read
# 0 calls by design until the benchmark's FUNCTIONS table drops them. Each
# must really be gone, so that its 0 cannot hide a live, renamed function.
RETIRED = {
    "solvers.design_diag",  # no caller since the homotopy replaced coordinate descent
    "selection.column_scores",  # lambda_max comes from solvers.corr_abs_max
    "solvers.design_predict",  # each design predicts itself: DenseDesign/ExpandedDesign.predict
    "ingest.merge_records",  # assemble_days places each parsed table's values in the grid itself
}


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    owner = importlib.import_module(f"ozolasso.{module}")
    if name in RETIRED:
        assert not hasattr(owner, attrs[0]), f"{name} is listed as retired but exists"
        return
    for attr in attrs:
        assert not attr.startswith("_"), name  # the tracer wraps public names only
        owner = getattr(owner, attr)
    assert inspect.isfunction(owner) or inspect.ismethod(owner), name


def write_three_days(path: Path, variables, extra_rows=()) -> None:
    lines = [",".join(("date", "hour") + variables)]
    for day in ("2016-07-01", "2016-07-02", "2016-07-03"):
        for hour in range(24):
            cells = [str(10.0 + hour + i) for i in range(len(variables))]
            lines.append(",".join([day, str(hour)] + cells))
    path.write_text("\n".join(lines + list(extra_rows)) + "\n")


def test_hooks_count_rows_parsed_and_built(tmp_path):
    write_three_days(tmp_path / "pol.csv", ingest.POLLUTANTS, ["2016-07-03,24" + ",1" * 7, ""])
    write_three_days(tmp_path / "met.csv", ingest.METEO_VARS)
    counts = Counter()
    hooks = child_hooks(counts)

    parsed = ingest.parse_hourly_file(tmp_path / "pol.csv", ingest.POLLUTANTS)
    assert len(parsed.records) == 72 and len(parsed.rejected) == 1
    hooks["ingest.parse_hourly_file"]((), parsed, None)
    assert counts["ingest.rows_parsed"] == 72 and counts["ingest.rows_rejected"] == 1

    config = RunConfig(pollutant_file=str(tmp_path / "pol.csv"), meteo_file=str(tmp_path / "met.csv"))
    days, forecast_days, _ = pipeline.load_day_blocks(config)
    assert len(days) == 3
    for variant in ("max", "max8h"):
        built = pipeline.build_base_features(days, variant, forecast_days)
        assert len(built[0]) == 2 == built[0].x.shape[0]
        hooks["features.build_base_features"]((), built, None)
    assert counts["features.rows_built"] == 4


def hook_result_attributes() -> dict[str, set[str]]:
    """Traced name -> the attributes its hook in child.py reads from the
    traced function's return value (``result.<attr>``), found by AST scan."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    layer_hooks = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_layer_hooks")
    reads = {
        fn.name: {
            node.attr for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "result"
        }
        for fn in layer_hooks.body if isinstance(fn, ast.FunctionDef)
    }
    table = next(n.value for n in layer_hooks.body if isinstance(n, ast.Return))
    return {key.value: reads[value.id] for key, value in zip(table.keys, table.values)}


def test_hooks_read_attributes_the_results_have():
    """A solver rewrite that renamed a result field would silently zero the
    benchmark's solver counters: each attribute a hook reads must exist on
    the type the traced function returns."""
    attributes = hook_result_attributes()
    assert {"sweeps_used", "converged"} <= attributes["solvers.fit_lasso"]
    assert {"grid", "fold_assignment"} <= attributes["selection.kfold_cv"]
    for name, attrs in attributes.items():
        module, *path = name.split(".")
        function = importlib.import_module(f"ozolasso.{module}")
        for attr in path:
            function = getattr(function, attr)
        returned = typing.get_type_hints(function)["return"]
        fields = {f.name for f in dataclasses.fields(returned)} if dataclasses.is_dataclass(returned) else set()
        for attr in attrs:
            assert attr in fields or hasattr(returned, attr), f"{name} result has no {attr}"


@pytest.mark.parametrize("max_sweeps", [solvers.MAX_SWEEPS, 1])
def test_lasso_model_holds_the_threshold_that_certified_it(tmp_path, monkeypatch, max_sweeps):
    """``check_outputs`` in perfbench/run.py rebuilds a Lasso model's
    certificate threshold as LassoConfig(lam=..., tol=solver.tol).kkt_tol:
    model.json must record the solver's constants, and that threshold must
    be the one its fit was certified against, converged or not."""
    synth.write_files(synth.SynthConfig(n_days=60, seed=9), tmp_path / "data")
    cut_short = max_sweeps != solvers.MAX_SWEEPS  # a fit that must fail its certificate
    monkeypatch.setattr(solvers, "MAX_SWEEPS", max_sweeps)
    certified, thresholds = solvers._certified, []

    def spy(*args, **kwargs):
        thresholds.append(inspect.signature(certified).bind(*args, **kwargs).arguments["kkt_tol"])
        return certified(*args, **kwargs)

    monkeypatch.setattr(solvers, "_certified", spy)
    assert main(["train", "--lambda", "0.0121", "--out-dir", str(tmp_path / "out"),
                 "--set", f"pollutant_file={tmp_path / 'data' / 'pollutants.csv'}",
                 "--set", f"meteo_file={tmp_path / 'data' / 'meteorology.csv'}",
                 "--set", "train_start=2015-01-01", "--set", "train_end=2015-02-17",
                 "--set", "test_start=2015-02-18", "--set", "test_end=2015-03-01"]) == 0
    model = json.loads((tmp_path / "out" / "model.json").read_text())
    solver = model["solver"]
    assert (solver["tol"], solver["max_sweeps"]) == (solvers.TOL, max_sweeps)
    kkt_tol = LassoConfig(lam=model["lambda"], tol=solver["tol"]).kkt_tol
    assert thresholds == [kkt_tol]
    worst = max(model["kkt"]["zero_violation"], model["kkt"]["active_violation"])
    assert solver["converged"] == (worst <= kkt_tol) == (not cut_short)
