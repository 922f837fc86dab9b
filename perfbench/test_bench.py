"""Fast self-test of the benchmark, on the bundled mini corpus and decode.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@functools.cache
def measured(workload, trace):
    return result_of(bench(ROOT, workload, trace))


def spans_of(workload):
    report = json.loads((ROOT / ".perfbench" / f"spans-{workload}-0.json").read_text())
    return report["spans"]


@pytest.mark.parametrize("workload", ["mini", "decode"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = measured(workload, trace)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }


def test_every_layer_metric_is_measured_on_some_workload():
    unmeasured = [
        m["name"] for m in BENCHMARK["per_layer"]
        if all(measured(w, 1)["metrics"][m["name"]]["value"] == 0 for w in ("mini", "decode"))
    ]
    assert unmeasured == []


def test_stage_spans_cover_the_pipeline():
    measured("mini", 1)
    records = spans_of("mini")
    stages = {f"cli.{s}" for s in ("align", "symmetrize", "lexicon", "lex", "ali", "bpe_learn",
                                   "bpe_apply", "augment", "manifest")}
    for top in (r for r in records if r["name"] == "cli.pipeline"):
        children = [r for r in records if r["round"] == top["round"] and r["parent"] == top["id"]]
        assert {r["name"] for r in children} == stages
        outside = top["busy"] - sum(r["busy"] for r in children)
        assert 0 <= outside < 0.1 * top["busy"]
    names = {r["name"] for r in records}
    assert {"model1.train_model1", "bpe.segment_constrained", "augment.augment_corpus"} <= names


def test_decode_touches_no_pipeline_layer():
    measured("decode", 1)
    names = {span["name"] for span in spans_of("decode")}
    assert {"mbr.chrf", "mbr.sentence_bleu", "bleu.corpus_bleu"} <= names
    assert not any(
        name.startswith(("model1.", "bpe.")) or name == "augment.augment_corpus"
        for name in names
    )


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "decode", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
