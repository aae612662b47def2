"""Run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process
and prefixes each metric with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pagerank-sparse", "gnmf-dense", "paper-apps", "greedy-gap")

#: Longest one workload's run may take.
RUN_TIMEOUT_S = 180


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def run_one(args: argparse.Namespace) -> int:
    from perfbench import host, measure

    runner = measure.prepare(args.workload, args.seed)
    if args.trace:
        outcome = measure.traced(runner, args.seconds)
    else:
        outcome = measure.untraced(
            runner, args.seconds, lambda n: measure.measure_setup(ROOT, n)
        )
    tally = outcome.tally
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{tally.attempted} units attempted, {tally.failed} failed, "
        f"fail_ratio {tally.fail_ratio:g}"
    )
    for problem in tally.problems[:10]:
        print(f"  FAILED: {problem}")
    for name, (value, unit) in outcome.metrics.items():
        note = "  (layer not exercised by this workload)" if args.trace and not value else ""
        print(f"  {name:<36} {value:>16.6g} {unit}{note}")
    stamp = host.stamp(ROOT, args.workload, args.seed, runner.workload.config())
    print("host " + json.dumps(stamp, sort_keys=True))
    print(_result_line(tally.correct, tally.attempted, tally.failed, outcome.metrics))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a process of its own, so peak memory and patched
    modules never carry over from one to the next."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}/{metric}"] = (entry["value"], entry["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
