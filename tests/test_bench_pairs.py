"""tools/bench_pairs.py: the pairwise summary of parent and working-tree runs."""

import hashlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "round_s", "better": "lower"}, {"name": "links", "better": "higher"}]


def run(workload, seed, side, round_s, links=0.0, failed=0, correct=True):
    metrics = {"round_s": {"value": round_s}, "links": {"value": links}}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": 1.0,
        "side": side,
        "result": {"failed": failed, "correct": correct, "metrics": metrics},
    }


def paired(workload, parent, change, **extra):
    """Runs of both sides, one pair per seed, the parent first in even pairs."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change, strict=True)):
        pair = [run(workload, seed, "parent", p, **extra), run(workload, seed, "change", c, **extra)]
        runs.extend(pair if seed % 2 == 0 else pair[::-1])
    return runs


def test_wins_ties_losses_for_lower_is_better():
    runs = paired("w", parent=[2.0, 2.0, 2.0, 2.0, 2.0], change=[1.0, 1.5, 2.0, 3.0, 1.0])
    row = bench_pairs.summarize(runs, METRICS)["w"]["metrics"]["round_s"]
    assert (row["wins"], row["ties"], row["losses"]) == (3, 1, 1)


def test_wins_for_higher_is_better():
    runs = [
        run("w", 0, "parent", 1.0, links=10.0), run("w", 0, "change", 1.0, links=12.0),
        run("w", 1, "change", 1.0, links=9.0), run("w", 1, "parent", 1.0, links=10.0),
        run("w", 2, "parent", 1.0, links=10.0), run("w", 2, "change", 1.0, links=11.0),
    ]
    row = bench_pairs.summarize(runs, METRICS)["w"]["metrics"]["links"]
    assert (row["wins"], row["ties"], row["losses"]) == (2, 0, 1)


def test_inclusive_quartiles_and_median_change():
    runs = paired("w", parent=[4.0, 1.0, 3.0, 2.0, 5.0], change=[3.0, 1.5, 2.5, 2.0, 6.0])
    row = bench_pairs.summarize(runs, METRICS)["w"]["metrics"]["round_s"]
    # inclusive: the quartiles interpolate between the sorted values themselves
    assert row["parent"] == (2.0, 3.0, 4.0)
    assert row["change"] == (2.0, 2.5, 3.0)
    assert row["median_change"] == pytest.approx(2.5 / 3.0 - 1.0)
    four = paired("v", parent=[1.0, 2.0, 3.0, 4.0], change=[1.0, 2.0, 3.0, 4.0])
    assert bench_pairs.summarize(four, METRICS)["v"]["metrics"]["round_s"]["parent"] == (
        1.75, 2.5, 3.25)


def test_zero_parent_median_gives_no_change():
    runs = paired("w", parent=[0.0, 0.0], change=[1.0, 1.0])
    assert bench_pairs.summarize(runs, METRICS)["w"]["metrics"]["round_s"]["median_change"] == 0.0


def test_median_place_against_the_parents_quartiles():
    """The change's median against the parent's [Q1, Q3] = [2.0, 4.0], in the
    metric's direction; a median on a bound is inside."""
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    for change, lower, higher in [
        ([1.0, 1.0, 1.5, 9.0, 9.0], "better", "worse"),
        ([1.0, 1.0, 2.0, 9.0, 9.0], "inside", "inside"),
        ([0.0, 0.0, 4.0, 9.0, 9.0], "inside", "inside"),
        ([0.0, 0.0, 4.5, 9.0, 9.0], "worse", "better"),
    ]:
        # both metrics read the same values, in opposite directions
        runs = [run("w", seed, side, value, links=value)
                for seed, pair in enumerate(zip(parent, change))
                for side, value in zip(("parent", "change"), pair)]
        rows = bench_pairs.summarize(runs, METRICS)["w"]["metrics"]
        assert (rows["round_s"]["median_place"], rows["links"]["median_place"]) == (
            lower, higher)
    line = bench_pairs.report(bench_pairs.summarize(runs, METRICS)).splitlines()[1]
    assert line.startswith("  round_s") and line.endswith("  median worse")


def test_failed_and_correct_cover_both_sides_per_workload():
    runs = paired("a", parent=[1.0, 1.0], change=[1.0, 1.0])
    runs[0]["result"]["failed"] = 2  # seed 0, parent
    runs[3]["result"]["failed"] = 1  # seed 1, parent (the change ran first)
    runs[2]["result"]["correct"] = False  # seed 1, change
    runs += paired("b", parent=[1.0, 1.0], change=[1.0, 1.0], failed=1)
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["a", "b"]
    assert (summary["a"]["failed"], summary["a"]["correct"]) == (3, False)
    assert (summary["b"]["failed"], summary["b"]["correct"]) == (4, True)


def test_working_tree_copy_holds_tracked_edits_and_unignored_new_files(tmp_path, monkeypatch):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    for name, text in [(".gitignore", "*.log\n__pycache__/\n"), ("src/kept.py", "old\n"),
                       ("src/edited.py", "old\n"), ("src/deleted.py", "old\n")]:
        (tree / name).write_text(text, encoding="utf-8")
    subprocess.run(["git", "init", "-q"], cwd=tree, check=True)
    subprocess.run(["git", "add", "."], cwd=tree, check=True)
    (tree / "src" / "edited.py").write_text("new\n", encoding="utf-8")
    (tree / "src" / "deleted.py").unlink()
    (tree / "src" / "added.py").write_text("added\n", encoding="utf-8")
    (tree / "run.log").write_text("ignored\n", encoding="utf-8")
    (tree / "src" / "__pycache__").mkdir()
    (tree / "src" / "__pycache__" / "kept.pyc").write_bytes(b"ignored")
    monkeypatch.setattr(bench_pairs, "ROOT", tree)
    copy = tmp_path / "copy"
    copy.mkdir()
    bench_pairs.export_tree(copy)
    assert sorted(str(path.relative_to(copy)) for path in copy.rglob("*") if path.is_file()) == [
        ".gitignore", "src/added.py", "src/edited.py", "src/kept.py"]
    assert (copy / "src" / "edited.py").read_text(encoding="utf-8") == "new\n"


FAKE_RUN = '''import json, os, sys
print(json.dumps({"failed": 0, "correct": True,
                  "pycache_env": os.environ.get("PYTHONPYCACHEPREFIX"),
                  "pycache_prefix": sys.pycache_prefix,
                  "dont_write_bytecode": sys.dont_write_bytecode,
                  "metrics": {"round_s": {"value": 1.0}}}))
'''


def bench_tree(tmp_path, run_py, workload="w"):
    """A committed tree with one benchmark workload, whose perfbench/run.py
    is run_py, and a copy of tools/bench_pairs.py."""
    tree = tmp_path / "tree"
    for folder in ("perfbench", "src", "tools"):
        (tree / folder).mkdir(parents=True)
    benchmark = {"workloads": [{"name": workload}],
                 "end_to_end": [{"name": "round_s", "better": "lower"}]}
    (tree / "BENCHMARK.json").write_text(json.dumps(benchmark), encoding="utf-8")
    (tree / "perfbench" / "run.py").write_text(run_py, encoding="utf-8")
    (tree / "src" / "code.py").write_text("pass\n", encoding="utf-8")
    shutil.copy(_PATH, tree / "tools" / "bench_pairs.py")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run([*git, "init", "-q"], cwd=tree, check=True)
    subprocess.run([*git, "add", "."], cwd=tree, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "tree"], cwd=tree, check=True)
    return tree


def test_record_holds_tool_hash_and_runs_without_pycache_prefix(tmp_path, monkeypatch):
    """main() on a tree whose perfbench/run.py reports its own environment:
    neither side's run gets a bytecode cache prefix, and the record holds
    the sha256 of tools/bench_pairs.py."""
    tree = bench_tree(tmp_path, FAKE_RUN)
    monkeypatch.setattr(bench_pairs, "ROOT", tree)
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    assert bench_pairs.main(["--parent", "HEAD", "--number", "7", "--pairs", "2",
                             "--seconds", "1"]) == 0
    record = json.loads((tree / "BENCH_7.json").read_text(encoding="utf-8"))
    assert record["tool_sha256"] == hashlib.sha256(_PATH.read_bytes()).hexdigest()
    assert sorted((run["seed"], run["side"]) for run in record["runs"]) == [
        (1, "change"), (1, "parent"), (2, "change"), (2, "parent")]
    for run in record["runs"]:
        assert run["result"]["pycache_env"] is None
        assert run["result"]["pycache_prefix"] is None
    assert "PYTHONPYCACHEPREFIX" not in os.environ


@pytest.mark.parametrize("value", [None, "", "1"])
def test_record_says_whether_runs_wrote_no_bytecode(tmp_path, monkeypatch, value):
    """The record's dont_write_bytecode is what every run saw: true when
    PYTHONDONTWRITEBYTECODE is set to a non-empty string, false when it is
    unset or empty, as Python reads it."""
    tree = bench_tree(tmp_path, FAKE_RUN)
    monkeypatch.setattr(bench_pairs, "ROOT", tree)
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.main(["--parent", "HEAD", "--number", "7", "--pairs", "2",
                             "--seconds", "1"]) == 0
    record = json.loads((tree / "BENCH_7.json").read_text(encoding="utf-8"))
    assert record["dont_write_bytecode"] is bool(value)
    assert [run["result"]["dont_write_bytecode"] for run in record["runs"]] == [bool(value)] * 4


# a benchmark run that records its process id, then runs far longer than the test
SLOW_RUN = '''import os, time
with open({pid_file!r} + ".tmp", "w") as file:
    file.write(str(os.getpid()))
os.replace({pid_file!r} + ".tmp", {pid_file!r})
time.sleep(120)
'''


def test_sigterm_kills_the_run_and_removes_the_copies(tmp_path):
    """The tool, started on one short decode pair and sent SIGTERM while the
    first run is under way, exits 143; the run is gone, and so is the
    temporary directory with both copies."""
    pid_file = tmp_path / "run.pid"
    tree = bench_tree(tmp_path, SLOW_RUN.format(pid_file=str(pid_file)), "decode")
    temp = tmp_path / "temp"
    temp.mkdir()
    argv = [sys.executable, "tools/bench_pairs.py", "--parent", "HEAD", "--number", "1",
            "--workload", "decode", "--pairs", "2", "--seconds", "1"]
    tool = subprocess.Popen(argv, cwd=tree, env={**os.environ, "TMPDIR": str(temp)},
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert tool.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text(encoding="utf-8"))
        assert [path.name[:12] for path in temp.iterdir()] == ["bench-pairs-"]
        tool.send_signal(signal.SIGTERM)
        assert tool.wait(timeout=60) == 128 + signal.SIGTERM
        assert list(temp.iterdir()) == []
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
    finally:
        tool.kill()
        tool.wait()
        if child is not None:
            with suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)
