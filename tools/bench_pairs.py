#!/usr/bin/env python3
"""Compare the benchmark of a parent revision with the working tree, pair by pair.

Usage: python3 tools/bench_pairs.py --parent REV --number N
           [--workload NAME ...] [--pairs 10] [--seconds 30] [--seed 1]

Both sides run from sibling copies in one temporary directory, which is
always removed at the end: the parent revision exported with ``git
archive``, and the working tree as it is before the first run (its tracked
files, uncommitted edits included, and its untracked files that git does
not ignore). SIGINT and SIGTERM stop the program the same way: the running
benchmark is killed and the directory removed, and SIGTERM exits 143.
Running the change from the working tree itself read a higher peak RSS
than the parent with no code change at all. Each side writes its
bytecode into its own copy, as a run from a checkout does; a bytecode cache
prefix raised every peak RSS by about 2.4 MB. For every workload (default:
each one BENCHMARK.json lists) and every pair i, both sides run
``perfbench/run.py --trace 0`` on seed ``--seed + i``,
each from its own copy; the parent goes first in even pairs and the working
tree in odd ones, so a drift of the host's speed does not favour one side.
The program prints, per workload and end-to-end metric, the median and
quartiles (inclusive method) of both sides, the median change, the pairs
the working tree won, tied and lost, and whether the working tree's median
is better than, inside or worse than the parent's [Q1, Q3], and writes every run's final JSON line
with its seed, seconds and side to BENCH_<N>.json at the repository root,
with the sha256 of this program as ``tool_sha256``, so that a change of the
harness between two records can be told from a change of the code, and
whether the runs inherited a non-empty ``PYTHONDONTWRITEBYTECODE``
(``dont_write_bytecode``): then every set-up recompiles lexali's sources,
so ``setup_s`` grows with their length.

The record names the working tree as HEAD, "with uncommitted changes" when
src/ differs from HEAD before the first run. If src/ is not the same after
the last run, the record would not name the code that was measured: the
program exits 1 and writes no BENCH_<N>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def source_state() -> bytes:
    """The status and uncommitted diff of src/, the code the runs measure."""
    return _git("status", "--porcelain", "--", "src") + _git("diff", "HEAD", "--", "src")


def export(rev: str, directory: Path) -> None:
    """Write the files of rev into directory."""
    archive = _git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def export_tree(directory: Path) -> None:
    """Copy the working tree's files into directory: the tracked ones that
    exist, as they are now, and the untracked ones that git does not ignore."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in dict.fromkeys(os.fsdecode(name) for name in listed.split(b"\0") if name):
        if os.path.lexists(ROOT / name):
            target = directory / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target, follow_symlinks=False)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced benchmark run from checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} exited "
                         f"{result.returncode}: {result.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: both sides' quartiles, the median change,
    the working tree's wins, ties and losses over the pairs, and where its
    median falls against the parent's [Q1, Q3]: "better", "inside" or
    "worse" in the metric's direction, the bounds counting as inside."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
        sides = [pair[side] for pair in pairs.values() for side in SIDES]
        rows: dict = {}
        summary[workload] = {
            "failed": sum(result["failed"] for result in sides),
            "correct": all(result["correct"] for result in sides),
            "metrics": rows,
        }
        for metric in metrics:
            name = metric["name"]
            values = {
                side: [pair[side]["metrics"][name]["value"] for pair in pairs.values()]
                for side in SIDES
            }
            # +1 where the working tree is better, -1 where it is worse
            direction = 1 if metric["better"] == "lower" else -1
            signs = [
                direction * ((parent > change) - (parent < change))
                for parent, change in zip(values["parent"], values["change"])
            ]
            parent_q, change_q = quartiles(values["parent"]), quartiles(values["change"])
            median = change_q[1]
            if parent_q[0] <= median <= parent_q[2]:
                place = "inside"
            else:
                place = "better" if (median < parent_q[0]) == (direction == 1) else "worse"
            rows[name] = {
                "parent": parent_q,
                "change": change_q,
                "median_change": change_q[1] / parent_q[1] - 1.0 if parent_q[1] else 0.0,
                "wins": signs.count(1),
                "ties": signs.count(0),
                "losses": signs.count(-1),
                "median_place": place,
            }
    return summary


def report(summary: dict) -> str:
    lines = []
    for workload, rows in summary.items():
        lines.append(f"{workload}: failed {rows['failed']}, all correct: {rows['correct']}")
        for name, row in rows["metrics"].items():
            parent, change = row["parent"], row["change"]
            lines.append(
                f"  {name:12} parent {parent[1]:.4f} [{parent[0]:.4f}, {parent[2]:.4f}]"
                f"  change {change[1]:.4f} [{change[0]:.4f}, {change[2]:.4f}]"
                f"  {100 * row['median_change']:+.1f} %"
                f"  won {row['wins']}, tied {row['ties']}, lost {row['losses']}"
                f"  median {row['median_place']}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--number", required=True, type=int, help="writes BENCH_<number>.json")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    parent_sha = _git("rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    head = _git("rev-parse", "HEAD").decode().strip()
    source = source_state()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        for checkout in checkouts.values():
            checkout.mkdir()
        export(parent_sha, checkouts["parent"])
        export_tree(checkouts["change"])
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.seed + i
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_once(checkouts[side], workload, seed, args.seconds)
                    runs.append({"workload": workload, "seed": seed, "seconds": args.seconds,
                                 "side": side, "result": result})
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                          file=sys.stderr)

    summary = summarize(runs, benchmark["end_to_end"])
    print(report(summary))
    if source_state() != source:
        raise SystemExit(f"error: src/ changed during the runs; BENCH_{args.number}.json "
                         "not written")
    record = {
        "parent": parent_sha,
        "change": head + (" with uncommitted changes" if source else ""),
        "python": platform.python_version(),
        "tool_sha256": hashlib.sha256(Path(__file__).read_bytes()).hexdigest(),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "pairs": args.pairs,
        "summary": summary,
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.number}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


def _terminate(signum: int, frame: object) -> None:
    """Raise on SIGTERM, as Python does on SIGINT, so that subprocess.run
    kills the running benchmark and the temporary directory is removed."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
