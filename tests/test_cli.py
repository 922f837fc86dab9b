"""Command line behavior: config handling, stages, determinism, errors."""

import argparse
import json
from importlib import resources

import pytest

from lexali import cli
from lexali.errors import ConfigError

DATA = resources.files("lexali") / "data"


# sha256 of each artifact of `pipeline` with defaults on the bundled mini
# corpus; the same on every supported Python version
MINI_ARTIFACTS = {
    "align.intersect.txt": "da247eb06c24c01614129739736459223c7796880d3ad9adc8414fdcf1530858",
    "align.src_to_tgt.txt": "769230bd06ac9bdefcea96ab47e5a847d617cd2dd597a6c0deac9b5870a78732",
    "align.tgt_to_src.txt": "d4be9b3c9156e15bd9b4b182b3d23263ace15d4efa4e625fc88d0afbe7d92d1e",
    "augmented.manifest.tsv": "9d797f45be5d373dc6b5ddd836e8c7d86b3f6af621bb57d59accaf738591635d",
    "augmented.src": "6321efcb652f5348b53829c403de729e5b0f46e8f1add39b595f2d18ccaba03b",
    "augmented.tgt": "752dbdd4116812341424003c1f9bfd22c3b30dd9f6005086441e6fb4bbe05224",
    "bpe.merges": "e5925b55ccf0dbd3901a39365f451de6eece186d5f67e2c5e5608b4147c92e26",
    "lexicon.tsv": "46a877fe0fe760c0595ce6f9bb6c0332b63ba1a80a87ae72ce12a75e615c98c2",
    "model1.src_to_tgt.txt": "c101ec82e99f47d1037a57b5ca2004db03388deec483111ed177b9548c10ba98",
    "model1.tgt_to_src.txt": "5e52ecd5d17c2d95a2b81d48d760f119178191087f620ee5aafd49bebd9757f1",
    "train.ali": "df90be5f035a8413c82cce587dc54ef2b57d587eda8c1a7a5ed38208fa363121",
    "train.ali.bpe": "df90be5f035a8413c82cce587dc54ef2b57d587eda8c1a7a5ed38208fa363121",
    "train.lex": "04c2b3ebbe5040b53cfb3913ac11ea2e7a08e57772f7accd7c6c4fadcdcacb39",
    "train.lex.bpe": "f388a3f52113825ea3bc2fb11bca6917fe2fca1badbcb9ae7095e0bd785f25dc",
    "train.src.bpe": "1bba23ee484ca4f5475c2f5123b78ff321cfc13135466d475f9a6b171a473664",
    "train.tgt.bpe": "879b4969882e5c45e8fd907d94afde1fe4fddb76454eb35bb7f79a5debf20e34",
    "vocab.tgt.bpe": "ae28b0e9cc9ba459a2194752aeab87c6f2a6c4f81b5c501377760816c77c19dd",
}


# sha256 of the augmented files of `pipeline` on the bundled mini corpus with
# the other augmentation settings
MINI_AUGMENTED = {
    "simple": {
        "augmented.manifest.tsv": "d8959f4648f7c525290944648451daed5c9d11768af141814d41c741f4b40d42",
        "augmented.src": "1bba23ee484ca4f5475c2f5123b78ff321cfc13135466d475f9a6b171a473664",
        "augmented.tgt": "0f581df05a3cdcb4738105f99f72a91c4b3b5df2122bf2f4e9768eb66cd16b03",
    },
    "tgt,lex": {
        "augmented.manifest.tsv": "05953d8a599946b9c774abde45c1534d9459b77d4658491af2dc7317e2c620de",
        "augmented.src": "fb64d99594aeac6510518d4640904159d6ae5a10affbb17ab355b6a30c0160b6",
        "augmented.tgt": "b4580d5a80039d438608dc87ed39c1002395b0135a64d0a7a405d45874a96b72",
    },
}


def data_path(name):
    return str(DATA / name)


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def toy_args(tmp_path):
    return [
        "--src", data_path("toy.src"),
        "--tgt", data_path("toy.tgt"),
        "--out", tmp_path / "run",
    ]


class TestConfig:
    def test_file_parsing(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# pipeline settings\n"
            "iterations = 3\n"
            "merges = 20   # inline comment\n"
            "mode = simple\n",
            encoding="utf-8",
        )
        values = cli.read_config_file(config)
        assert values == {"iterations": "3", "merges": "20", "mode": "simple"}

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("sneed = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            cli.read_config_file(config)

    def test_missing_equals_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("iterations 3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            cli.read_config_file(config)

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            f"src = {data_path('toy.src')}\n"
            f"tgt = {data_path('toy.tgt')}\n"
            f"out = {tmp_path / 'a'}\n"
            "iterations = 2\n",
            encoding="utf-8",
        )
        args = argparse.Namespace(config=str(config), iterations="7")
        resolved = cli.resolve_config(args)
        assert resolved.iterations == 7
        assert resolved.src == data_path("toy.src")

    def test_defaults(self, tmp_path):
        args = argparse.Namespace(
            src=data_path("toy.src"),
            tgt=data_path("toy.tgt"),
            out=str(tmp_path),
        )
        resolved = cli.resolve_config(args)
        assert resolved.iterations == 5
        assert resolved.merges == 500
        assert resolved.mode == "full"
        assert resolved.utility == "chrf"
        assert [k.name.lower() for k in resolved.segments] == ["lex", "ali", "tgt"]

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required"):
            cli.resolve_config(argparse.Namespace(src=None))

    def test_nonexistent_corpus_path(self, tmp_path):
        args = argparse.Namespace(
            src=str(tmp_path / "none.txt"),
            tgt=data_path("toy.tgt"),
            out=str(tmp_path),
        )
        with pytest.raises(ConfigError, match="does not exist"):
            cli.resolve_config(args)

    @pytest.mark.parametrize(
        "alias,kind",
        [("chrf", "chrf"), ("sbleu", "sentence_bleu"), ("exact", "exact_match")],
    )
    def test_utility_aliases(self, alias, kind):
        assert cli._parse_utility(alias) == kind

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            cli._parse_utility("bleurt")
        with pytest.raises(ConfigError):
            cli._parse_segments("lex,ali")
        with pytest.raises(ConfigError):
            cli._parse_segments("lex,lex,tgt")
        with pytest.raises(ConfigError):
            cli._parse_int("five", "iterations", 1)
        with pytest.raises(ConfigError):
            cli._parse_int("0", "iterations", 1)


class TestPipeline:
    def test_toy_run_writes_all_artifacts(self, tmp_path, toy_args):
        assert run(["pipeline", *toy_args]) == 0
        out = tmp_path / "run"
        for name in cli.PIPELINE_ARTIFACTS:
            assert (out / name).is_file(), name
        manifest = json.loads((out / cli.RUN_MANIFEST).read_text())
        assert manifest["tool"] == "lexali"
        assert set(manifest["artifacts"]) == set(cli.PIPELINE_ARTIFACTS)
        assert all(len(v) == 64 for v in manifest["artifacts"].values())
        assert not (out / cli.LOCK_FILE).exists()

    def test_rerun_is_byte_identical(self, tmp_path, toy_args):
        run(["pipeline", *toy_args])
        first = (tmp_path / "run" / cli.RUN_MANIFEST).read_bytes()
        run(["pipeline", *toy_args])
        second = (tmp_path / "run" / cli.RUN_MANIFEST).read_bytes()
        assert first == second

    def test_mini_artifacts_match_pinned_checksums(self, tmp_path):
        out = tmp_path / "run"
        assert run(["pipeline", "--src", data_path("mini.src"),
                    "--tgt", data_path("mini.tgt"), "--out", out]) == 0
        manifest = json.loads((out / cli.RUN_MANIFEST).read_text())
        assert manifest["artifacts"] == MINI_ARTIFACTS

    @pytest.mark.parametrize(
        "flags",
        [["--mode", "simple"], ["--segments", "tgt,lex"]],
        ids=["simple", "tgt,lex"],
    )
    def test_mini_augmented_match_pinned_checksums(self, tmp_path, flags):
        out = tmp_path / "run"
        assert run(["pipeline", "--src", data_path("mini.src"),
                    "--tgt", data_path("mini.tgt"), "--out", out, *flags]) == 0
        artifacts = json.loads((out / cli.RUN_MANIFEST).read_text())["artifacts"]
        pinned = MINI_AUGMENTED[flags[1]]
        assert {name: artifacts[name] for name in pinned} == pinned

    def test_pipeline_equals_chained_subcommands(self, tmp_path):
        src = data_path("toy.src")
        tgt = data_path("toy.tgt")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["pipeline", "--src", src, "--tgt", tgt, "--out", a])
        for argv in (
            ["align", "--src", src, "--tgt", tgt, "--out", b],
            ["symmetrize", "--out", b],
            ["lexicon", "--src", src, "--tgt", tgt, "--out", b],
            ["lex", "--src", src, "--out", b],
            ["ali", "--tgt", tgt, "--out", b],
            ["bpe-learn", "--src", src, "--tgt", tgt, "--out", b],
            ["bpe-apply", "--src", src, "--tgt", tgt, "--out", b],
            ["augment", "--out", b],
        ):
            assert run(argv) == 0, argv
        for name in cli.PIPELINE_ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_augmented_line_count(self, tmp_path, toy_args):
        run(["pipeline", *toy_args])
        lines = (tmp_path / "run" / cli.AUG_SRC).read_text().splitlines()
        # 2 sentences, 3 segments, full mode: 2 * 3! examples
        assert len(lines) == 12

    def test_simple_mode_has_no_control_token(self, tmp_path, toy_args):
        run(["pipeline", *toy_args, "--mode", "simple"])
        lines = (tmp_path / "run" / cli.AUG_SRC).read_text().splitlines()
        assert len(lines) == 2
        assert not lines[0].startswith("<")

    def test_lock_blocks_concurrent_runs(self, tmp_path, toy_args, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / cli.LOCK_FILE).touch()
        assert run(["pipeline", *toy_args]) == 1
        assert "locked" in capsys.readouterr().err

    def test_ali_out_of_range_link_names_file_and_line(self, tmp_path, toy_args, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        (out / cli.ALIGN_T2S).write_text("0-0 1-1\n9-0 1-1\n", encoding="utf-8")
        assert run(["ali", "--tgt", data_path("toy.tgt"), "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{cli.ALIGN_T2S}:2: link 9 out of range" in err

    @pytest.mark.parametrize(
        ("line", "message"),
        [("x\ty\tnotanint", "count 'notanint' is not a non-negative integer"),
         ("buch\tZZZ\t1", "source word 'buch' listed twice")],
        ids=["non-integer", "repeated"],
    )
    def test_lex_bad_lexicon_line_names_file_and_line(
        self, tmp_path, toy_args, capsys, line, message
    ):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        lexicon = out / cli.LEXICON
        lines = lexicon.read_text(encoding="utf-8").splitlines()
        lexicon.write_text("\n".join([*lines, line]) + "\n", encoding="utf-8")
        assert run(["lex", "--src", data_path("toy.src"), "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{cli.LEXICON}:{len(lines) + 1}: {message}" in err

    def test_subcommand_missing_artifacts_fails(self, tmp_path, capsys):
        # ali requires earlier artifacts; point at an empty directory
        assert run(["ali", "--tgt", data_path("toy.tgt"), "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert "error:" in err


class TestDecodingCommands:
    def test_extract(self, tmp_path, capsys):
        decoded = tmp_path / "decoded.txt"
        decoded.write_text(
            "<lex> a b <tgt> x y\n<lex> only\n", encoding="utf-8"
        )
        out = tmp_path / "tgt.txt"
        assert run(["extract", "--input", decoded, "--kind", "tgt",
                    "--output", out]) == 0
        assert out.read_text(encoding="utf-8") == "x y\n\n"
        assert "no <tgt> marker" in capsys.readouterr().err

    def test_extract_ambiguous_marker_fails(self, tmp_path, capsys):
        decoded = tmp_path / "decoded.txt"
        decoded.write_text("<tgt> a <tgt> b\n", encoding="utf-8")
        assert run(["extract", "--input", decoded, "--kind", "tgt",
                    "--output", tmp_path / "o.txt"]) == 1

    def test_mbr_unanimous(self, tmp_path):
        files = []
        for i in range(6):
            path = tmp_path / f"cand{i}.txt"
            path.write_text("the same line\n", encoding="utf-8")
            files.append(path)
        out = tmp_path / "consensus.txt"
        assert run(["mbr", *files, "--utility", "chrf", "--output", out]) == 0
        assert out.read_text(encoding="utf-8") == "the same line\n"

    def test_mbr_scores_file_flags_empty_candidates(self, tmp_path):
        (tmp_path / "c0.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "c1.txt").write_text("\n", encoding="utf-8")
        out = tmp_path / "consensus.txt"
        scores = tmp_path / "scores.txt"
        assert run([
            "mbr", tmp_path / "c0.txt", tmp_path / "c1.txt",
            "--utility", "exact", "--output", out, "--scores", scores,
        ]) == 0
        line = scores.read_text(encoding="utf-8").strip()
        assert line.endswith("empty=1")
        assert len(line.split("\t")) == 3

    def test_mbr_tie_takes_smallest_index(self, tmp_path):
        # under exact match line 1 ties all five candidates and line 2 ties
        # indices 1 to 4; neither winner is the smallest or the last string
        lines = [("b", "x"), ("a", "y"), ("c", "y"), ("d", "z"), ("e", "z")]
        files = []
        for i, cells in enumerate(lines):
            path = tmp_path / f"c{i}.txt"
            path.write_text("".join(cell + "\n" for cell in cells), encoding="utf-8")
            files.append(path)
        out = tmp_path / "consensus.txt"
        assert run(["mbr", *files, "--utility", "exact", "--output", out]) == 0
        assert out.read_text(encoding="utf-8") == "b\ny\n"

    def test_mbr_line_count_mismatch(self, tmp_path, capsys):
        (tmp_path / "c0.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "c1.txt").write_text("a\n", encoding="utf-8")
        assert run([
            "mbr", tmp_path / "c0.txt", tmp_path / "c1.txt",
            "--output", tmp_path / "o.txt",
        ]) == 1
        assert "line count" in capsys.readouterr().err

    def test_bleu_output(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("the cat sat on the mat\n", encoding="utf-8")
        assert run(["bleu", "--hyp", hyp, "--ref", hyp]) == 0
        out = capsys.readouterr().out
        assert out == "BLEU = 100.00 (100.0/100.0/100.0/100.0, BP=1.000)\n"

    def test_bleu_mismatch_fails(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\n", encoding="utf-8")
        ref.write_text("a\nb\n", encoding="utf-8")
        assert run(["bleu", "--hyp", hyp, "--ref", ref]) == 1
        assert "error:" in capsys.readouterr().err


def test_missing_input_file_exits_cleanly(tmp_path, capsys):
    assert run([
        "align", "--src", tmp_path / "none.src",
        "--tgt", tmp_path / "none.tgt", "--out", tmp_path,
    ]) == 1
    assert "cannot read" in capsys.readouterr().err
