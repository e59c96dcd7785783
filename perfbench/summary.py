"""Run every workload once untraced and once traced, then print the machine,
every end-to-end metric per workload (name and unit), and the per-layer
table from the traced runs.

Usage (from the repository root):

    python3 perfbench/summary.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """(result, machine line) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next((line for line in lines if line.startswith("machine:")), "")
    return json.loads(lines[-1]), machine


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def table(names: list[str], units: dict, results: dict[str, dict]) -> list[str]:
    workloads = list(results)
    width = max(len(f"{n} [{units[n]}]") for n in names) + 2
    lines = [f"{'metric [unit]':<{width}}" + "".join(f"{w:>16}" for w in workloads)]
    for name in names:
        cells = "".join(f"{_fmt(results[w]['metrics'][name]['value']):>16}" for w in workloads)
        lines.append(f"{f'{name} [{units[name]}]':<{width}}{cells}")
    lines.append(f"{'correct / attempted / failed':<{width}}" + "".join(
        f"{'%s/%d/%d' % (results[w]['correct'], results[w]['attempted'], results[w]['failed']):>16}"
        for w in workloads))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args()
    untraced, traced, machine = {}, {}, ""
    for name in run.WORKLOADS:
        untraced[name], machine = bench(name, args.seed, args.seconds, 0)
        traced[name], _ = bench(name, args.seed, 1, 1)
    print(machine)
    print(f"\nend-to-end (seed {args.seed}, {args.seconds} s per run, untraced)")
    print("\n".join(table(list(run.END_TO_END), {k: v[0] for k, v in run.END_TO_END.items()},
                          untraced)))
    units = {k: v[0] for k, v in run.per_layer_units().items()}
    print(f"\nper-layer (seed {args.seed}, one traced repeat)")
    print("\n".join(table(list(units), units, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
