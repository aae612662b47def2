"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds 25]

Runs ``run.py --trace 0`` once per seed, one after another, and prints for
each end-to-end metric its median over the runs and its spread: the
distance between the first and third quartile as a share of the median.
A spread at or above a third of the metric's bound in ``BENCHMARK.json``
is flagged; ``setup_s`` is exempt, its median is what gets compared.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, relative_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        spread = relative_spread(values[name])
        flag = ""
        if name != "setup_s" and spread >= bound / 3:
            flag = f"  <- spread not below a third of the bound {bound}"
            steady = False
        print(f"{name:<12} median {median(values[name]):<14.6g} spread {spread:.4f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
