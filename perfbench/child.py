"""One benchmark process: import the program, then run a workload's command
sequence in-process through ``ozolasso.cli.main``.

Usage: python3 child.py SPEC.json

SPEC holds ``src`` (directory holding the ``ozolasso`` package), ``argvs``
(the commands to run; empty to time the import only), ``trace`` and the
``spans`` path. The result goes to the ``result`` path as JSON.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent


def blas_info() -> dict:
    """BLAS vendor from numpy's build config and the live thread count."""
    import ctypes

    import numpy as np

    info: dict = {"vendor": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _layer_hooks(counts: Counter, passes: Counter) -> dict:
    """Counters read from return values at the layer boundaries."""
    from ozolasso.solvers import SingularDesignError

    def parsed(args, result, exc):
        if result is not None:
            counts["ingest.rows_parsed"] += len(result.records)
            counts["ingest.rows_rejected"] += len(result.rejected)

    def built(args, result, exc):
        if result is not None:
            counts["features.rows_built"] += len(result[0])

    def block(args, result, exc):
        if result is not None:
            counts["expansion.columns_generated"] += result.shape[1]
            counts["expansion.bytes_computed"] += result.nbytes
            passes[args[0].n_features] += result.shape[1]

    def lasso(args, result, exc):
        if result is not None:
            counts["solvers.sweeps"] += result.sweeps_used
            counts["solvers.unconverged_fits"] += not result.converged

    def closed_form(args, result, exc):
        if isinstance(exc, SingularDesignError):
            counts["solvers.singular_designs"] += 1

    def cv(args, result, exc):
        if result is not None:
            counts["selection.cv_fits"] += len(result.grid) * (int(result.fold_assignment.max()) + 1)

    return {
        "ingest.parse_hourly_file": parsed,
        "features.build_base_features": built,
        "expansion.ExpandedDesign.block": block,
        "solvers.fit_lasso": lasso,
        "solvers.fit_ols": closed_form,
        "solvers.fit_ridge": closed_form,
        "selection.kfold_cv": cv,
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])

    t0 = time.perf_counter()
    import ozolasso.cli as cli

    setup_s = time.perf_counter() - t0
    result: dict = {"setup_s": setup_s}
    argvs = spec["argvs"]
    if argvs:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        records = _Records()
        logging.getLogger("ozolasso.pipeline").addHandler(records)
        tracer = counts = passes = None
        if spec["trace"]:
            counts, passes = Counter(), Counter()
            tracer = Tracer()
            tracer.hooks.update(_layer_hooks(counts, passes))
            # the subcommand handlers stay inside the cli.main span, whose
            # self time is then dispatch, formatting and artifact writes
            skip = {f"cli.{name}" for name in vars(cli) if name != "main"}
            tracer.install("ozolasso", skip=skip)
        times, cpu, codes = [], [], []
        for argv in argvs:
            c = time.process_time()
            t = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            times.append(time.perf_counter() - t)
            cpu.append(time.process_time() - c)
            codes.append(code)
        if tracer is not None:
            tracer.uninstall()
            counts["expansion.design_passes"] = sum(c / p for p, c in passes.items())
            result["counts"] = dict(counts)
            Path(spec["spans"]).write_text(json.dumps(tracer.spans))
        result.update(times=times, cpu=cpu, codes=codes, warnings=records.messages)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
