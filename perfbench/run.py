#!/usr/bin/env python3
"""lexali benchmark: seeded workloads driven through ``lexali.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload zipf-align --seed 1 --seconds 30 --trace 0

One run is one process and one client in a closed loop: it issues the
workload's CLI calls one after another, in rounds, until --seconds have
passed, and checks every call's output. The last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones; their times are scaled to a
reference host speed by a calibration loop timed right before and right
after each set-up and each round (see calibrate). With --trace 1 the run
alternates traced and untraced rounds, reports the per-layer metrics of
perfbench/spans.py and writes every span to
.perfbench/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from collections.abc import Callable
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

ROOT = Path.cwd()
STATE_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 15
LEXALI_MODULES = (
    "cli", "corpus", "model1", "symmetrize", "sequences", "bpe", "augment", "mbr", "bleu",
)
# a fixed IBM-1-style EM pass, independent of lexali, times the host's speed;
# CALIBRATION_REF_S is its time on a quiet host of the baseline's kind
_calibration_rng = random.Random(12345)
CALIBRATION_PAIRS = [
    (
        [f"c{_calibration_rng.randrange(4000)}" for _ in range(12)],
        [f"d{_calibration_rng.randrange(4000)}" for _ in range(12)],
    )
    for _ in range(120)
]
CALIBRATION_REF_S = 0.03


@dataclass
class Call:
    label: str
    argv: list[str]
    check: Callable[[str], list[str]]


@dataclass
class Plan:
    calls: list[Call]
    written: Callable[[], int]
    watch_dir: Path | None = None


def _dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path))


def _pipeline_plan(src: Path, tgt: Path, work: Path, golden: dict | None) -> Plan:
    out = work / "out"
    out.mkdir(exist_ok=True)
    argv = ["pipeline", "--src", str(src), "--tgt", str(tgt), "--out", str(out)]
    artifacts = golden["artifacts"] if golden else None
    return Plan(
        [Call("pipeline", argv, lambda stdout: workloads.check_pipeline(out, src, artifacts))],
        lambda: _dir_bytes(out),
        out,
    )


def _golden_files(golden: dict | None, paths: list[Path]) -> list[str]:
    if golden is None:
        return []
    seen = {path.name: workloads.sha256_file(path) for path in paths}
    want = {name: golden["files"][name] for name in seen}
    return [] if seen == want else ["outputs differ from golden.json: " + json.dumps(seen)]


def _decode_plan(seed: int, work: Path, golden: dict | None) -> Plan:
    inputs = workloads.make_decode_inputs(seed, work)
    calls, outputs = [], []
    for utility, pools in inputs.pools.items():
        consensus, scores = work / f"consensus.{utility}", work / f"scores.{utility}"
        outputs += [consensus, scores]
        argv = ["mbr", *map(str, inputs.candidate_files[utility]), "--utility", utility,
                "--output", str(consensus), "--scores", str(scores)]

        def check(stdout, pools=pools, paths=(consensus, scores), exact=utility == "exact"):
            problems = workloads.check_mbr(pools, *paths, exact)
            return problems + _golden_files(golden, list(paths))

        calls.append(Call(f"mbr_{utility}", argv, check))

    def check_bleu(stdout):
        problems = workloads.check_bleu(stdout)
        if golden is not None and stdout.strip() != golden["bleu"]:
            problems.append(f"bleu output differs from golden.json: {stdout.strip()!r}")
        return problems

    calls.append(Call("bleu", ["bleu", "--hyp", str(inputs.hyp), "--ref", str(inputs.ref)], check_bleu))

    extracted = work / "extracted.tgt"
    outputs.append(extracted)

    def check_extract(stdout):
        if extracted.read_text(encoding="utf-8") != inputs.extract_expected:
            return ["extract output differs from the generated tgt segments"]
        return []

    argv = ["extract", "--input", str(inputs.extract_input), "--kind", "tgt", "--output", str(extracted)]
    calls.append(Call("extract", argv, check_extract))
    return Plan(calls, lambda: sum(path.stat().st_size for path in outputs))


def prepare(workload: str, seed: int, work: Path) -> Plan:
    """Generate the workload's inputs into work and describe one round."""
    golden_all = workloads.load_golden()
    golden = golden_all[workload] if seed == workloads.GOLDEN_SEED else None
    if workload == "zipf-align":
        src, tgt = workloads.make_zipf_corpus(seed, work)
    elif workload == "mini-wide":
        src, tgt = workloads.make_mini_wide_corpus(seed, work, ROOT / "tools")
    elif workload == "mini":
        src, tgt = workloads.copy_mini_corpus(ROOT / "src" / "lexali" / "data", work)
        golden = golden_all["mini"]
    else:
        return _decode_plan(seed, work, golden)
    return _pipeline_plan(src, tgt, work, golden)


def run_round(cli, plan: Plan, tracer: spans.Tracer | None) -> tuple[float, list]:
    """Issue every call of one round; returns busy time and per-call results."""
    clock = tracer.now if tracer else time.perf_counter
    if tracer:
        tracer.mark_files()
    total = 0.0
    results = []
    for call in plan.calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                with tracer.span(f"cli.{call.label}") if tracer else nullcontext():
                    code = cli.main(call.argv)
        except Exception:
            code = None
            stderr.write(traceback.format_exc())
        total += clock() - start
        results.append((code, stdout.getvalue(), stderr.getvalue()))
    return total, results


def _problems(call: Call, code: int | None, stdout: str, stderr: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"]
    try:
        return call.check(stdout)
    except Exception:
        return [traceback.format_exc()]


def _import_lexali() -> dict[str, object]:
    for name in [m for m in sys.modules if m == "lexali" or m.startswith("lexali.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"lexali.{name}") for name in LEXALI_MODULES}


def calibrate() -> float:
    """Seconds two EM iterations over CALIBRATION_PAIRS take: the host's speed now.

    On a shared host the speed of pure-Python code changes by up to about
    2x within seconds; this loop slows about as much as lexali's own.
    """
    start = time.perf_counter()
    probs = {}
    for conditioning, emitted in CALIBRATION_PAIRS:
        for e in conditioning:
            probs.setdefault(e, {}).update(dict.fromkeys(emitted, 1.0))
    for _ in range(2):
        counts: dict[str, dict[str, float]] = {}
        for conditioning, emitted in CALIBRATION_PAIRS:
            for f in emitted:
                denom = sum(probs[e][f] for e in conditioning)
                for e in conditioning:
                    row = counts.setdefault(e, {})
                    row[f] = row.get(f, 0.0) + probs[e][f] / denom
        probs = {e: {f: c / sum(row.values()) for f, c in row.items()} for e, row in counts.items()}
    return time.perf_counter() - start


def host_scaled(times: list[float], calibration: list[float]) -> list[float]:
    """Each time scaled to the reference host speed, CALIBRATION_REF_S.

    calibration[i] and calibration[i + 1] were measured right before and
    right after times[i].
    """
    return [
        elapsed * CALIBRATION_REF_S / ((before + after) / 2)
        for elapsed, before, after in zip(times, calibration, calibration[1:])
    ]


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists in the section."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in benchmark[section]}


def run(args: argparse.Namespace, work: Path) -> dict:
    setup_times, setup_calibration = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        modules = _import_lexali()
        plan = prepare(args.workload, args.seed, work)
        setup_times.append(time.perf_counter() - start)
        setup_calibration.append(calibrate())
    source = Path(modules["cli"].__file__).resolve()
    if not source.is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"error: imported lexali from {source}, not from ./src")

    attempted = failed = 0
    rounds: list[tuple[float, spans.Tracer | None]] = []
    calibration = [calibrate()]
    min_rounds = 3 if args.trace else 1
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        tracer = spans.Tracer(plan.watch_dir) if args.trace and len(rounds) % 2 == 0 else None
        if tracer:
            tracer.install(modules)
        try:
            elapsed, results = run_round(modules["cli"], plan, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        for call, (code, stdout, stderr) in zip(plan.calls, results):
            attempted += 1
            problems = _problems(call, code, stdout, stderr)
            if problems:
                failed += 1
                print(f"{call.label}: " + "; ".join(problems), file=sys.stderr)
        rounds.append((elapsed, tracer))
        # the next round starts from a collected heap
        gc.collect()
        calibration.append(calibrate())

    scaled = host_scaled([elapsed for elapsed, _ in rounds], calibration)
    if args.trace:
        units = metric_units("per_layer")
        metrics = _traced_metrics(args, rounds, scaled, list(units))
    else:
        units = metric_units("end_to_end")
        metrics = {
            "setup_s": statistics.median(host_scaled(setup_times, setup_calibration)),
            "round_s": statistics.median(scaled),
            "peak_rss_mb": spans.rss_mb(),
            "artifact_mb": plan.written() / spans.MB,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _traced_metrics(
    args: argparse.Namespace, rounds: list, scaled: list[float], names: list[str]
) -> dict[str, float]:
    """Medians over traced rounds; the first (cold) one only gives the RSS marks.

    Span times are seconds as measured; the trace.* round times are scaled
    to the reference host speed like round_s.
    """
    traced = [tracer for _, tracer in rounds if tracer]
    per_round = [spans.layer_metrics(tracer.spans, names) for tracer in traced]
    warm = per_round[1:]
    metrics = {name: statistics.median(m[name] for m in warm) for name in per_round[0]}
    for name in metrics:
        if name.endswith("_rss_mb"):
            metrics[name] = per_round[0][name]
    # rounds alternate traced and untraced, starting with a (cold) traced one
    traced_s = statistics.median(scaled[2::2])
    untraced_s = statistics.median(scaled[1::2])
    metrics["trace.round_s"] = traced_s
    metrics["trace.untraced_round_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s

    records = []
    for index, (elapsed, tracer) in enumerate(rounds):
        if tracer is None:
            continue
        origin = tracer.spans[0].start
        records += [
            {
                "round": index,
                "id": i,
                "name": span.name,
                "parent": span.parent,
                "start": span.start - origin,
                "end": span.end - origin,
                "calls": span.calls,
                "busy": span.busy,
                "counts": span.counts,
            }
            for i, span in enumerate(tracer.spans)
        ]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [
            {"round": i, "traced": tracer is not None, "busy_s": elapsed, "scaled_s": scaled[i]}
            for i, (elapsed, tracer) in enumerate(rounds)
        ],
        "metrics": metrics,
        "spans": records,
    }
    path = STATE_DIR / f"spans-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["zipf-align", "mini-wide", "decode", "mini"]
    )
    parser.add_argument("--seed", type=int, default=workloads.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lexali" / "cli.py").is_file():
        print("error: src/lexali/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    os.environ.pop("LEXALI_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    work = STATE_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
