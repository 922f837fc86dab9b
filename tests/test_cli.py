"""Command line behavior: config handling, stages, determinism, errors."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexali import __version__, augment, cli, corpus, model1
from lexali.errors import ConfigError, LexaliError

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


def run_module(argv):
    """Run ``python -m lexali.cli`` in a new process on this checkout's package."""
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-m", "lexali.cli", *map(str, argv)],
        capture_output=True, env=env, check=False,
    )


# every command that writes into --out
OUT_COMMANDS = ["pipeline", *cli.STAGES]


def toy_argv(command, out):
    """The command on the toy corpus, with the corpus flags it takes."""
    names = cli.STAGES[command][1] if command in cli.STAGES else cli.OPTIONS
    corpus_flags = [
        flag for side in ("src", "tgt") if side in names
        for flag in (f"--{side}", data_path(f"toy.{side}"))
    ]
    return [command, *corpus_flags, "--out", out]


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
        # utility and seed were pipeline keys once; they are no longer read
        for key in ("sneed", "utility", "seed"):
            config.write_text(f"iterations = 3\n{key} = 1\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=rf"run\.conf:2: unknown key '{key}'"):
                cli.read_config_file(config)

    def test_repeated_key_rejected(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("iterations = 3\n\niterations = 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.conf:3: key 'iterations' given twice"):
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
        args = cli.build_parser().parse_args(
            ["mbr", "c.txt", "--output", "o.txt", "--utility", alias]
        )
        assert cli._UTILITY_ALIASES[args.utility] == kind

    def test_bad_values(self, capsys):
        # an internal utility name is not a command line value either
        for name in ("bleurt", "sentence_bleu"):
            with pytest.raises(SystemExit) as exit_info:
                cli.build_parser().parse_args(
                    ["mbr", "c.txt", "--output", "o.txt", "--utility", name]
                )
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: lexali mbr ")
            assert f"argument --utility: invalid choice: '{name}'" in err
        with pytest.raises(ConfigError):
            cli._parse_segments("lex,ali")
        with pytest.raises(ConfigError):
            cli._parse_segments("lex,lex,tgt")
        with pytest.raises(ConfigError):
            cli._parse_int("five", "iterations", 1)
        with pytest.raises(ConfigError):
            cli._parse_int("0", "iterations", 1)


# a config value: no "#", which starts a comment, and no line break
CONFIG_VALUE = st.text(
    st.characters(blacklist_characters="#\n", blacklist_categories=("Cs",)), max_size=8
).map(str.strip).filter(bool)
# a line read_config_file must reject wherever it stands
BAD_CONFIG_LINE = st.one_of(
    st.text("abc xyz\t\r", max_size=8).filter(str.strip),
    st.text("abcxyz_", max_size=8).filter(lambda key: key not in cli.OPTIONS).map(
        lambda key: f"{key} = 1"
    ),
    st.sampled_from(list(cli.OPTIONS)).map(lambda key: f"{key} =\r"),
)


@given(
    values=st.dictionaries(st.sampled_from(list(cli.OPTIONS)), CONFIG_VALUE),
    line_index=st.integers(0, 10),
    bad_line=BAD_CONFIG_LINE,
)
def test_config_file_round_trip_and_bad_line(tmp_path_factory, values, line_index, bad_line):
    path = tmp_path_factory.mktemp("config") / "run.conf"
    lines = ["# settings", "", *(f"{key} = {value}" for key, value in values.items())]
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    assert cli.read_config_file(path) == values
    index = line_index % (len(lines) + 1)
    lines.insert(index, bad_line)
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}:{index + 1}: ")):
        cli.read_config_file(path)


def test_config_file_invalid_utf8_exits_cleanly(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_bytes(b"iterations = 3\n\xff = 1\n")
    assert run(["pipeline", "--config", config]) == 1
    assert capsys.readouterr().err == f"error: {config}: invalid UTF-8 at byte offset 15\n"


# one bad value per option: the stage subcommand and the pipeline must fail
# with the same exit code and the same message, before creating --out
BOTH_SIDES = ["--src", data_path("toy.src"), "--tgt", data_path("toy.tgt")]
BAD_VALUES = [
    (["align", "--tgt", data_path("toy.tgt")], "--src", data_path("none.src"),
     f"src path does not exist: {data_path('none.src')}"),
    (["align", "--tgt", data_path("toy.tgt")], "--src", str(DATA),
     f"src path is not a file: {DATA}"),
    (["align", *BOTH_SIDES], "--iterations", "0", "iterations must be >= 1, got 0"),
    (["align", *BOTH_SIDES], "--iterations", "five",
     "iterations must be an integer, got 'five'"),
    (["align", *BOTH_SIDES], "--iterations", "\uff15",
     "iterations must be an integer, got '\uff15'"),
    (["align", *BOTH_SIDES], "--iterations", "1_0",
     "iterations must be an integer, got '1_0'"),
    (["bpe-learn", *BOTH_SIDES], "--merges", "-1", "merges must be >= 0, got -1"),
    (["bpe-apply", *BOTH_SIDES], "--vocab-threshold", "0",
     "vocab_threshold must be >= 1, got 0"),
    (["augment"], "--mode", "x", "mode must be 'simple' or 'full', got 'x'"),
    (["augment"], "--segments", "lex", "segments must include tgt"),
    (["augment"], "--segments", "lex,xyz", "unknown segment kind 'xyz'"),
    (["augment"], "--segments", "lex,lex,tgt", "duplicate segment kind in 'lex,lex,tgt'"),
]


@pytest.mark.parametrize(
    ("stage", "flag", "value", "message"),
    BAD_VALUES,
    ids=[f"{flag[2:]}={Path(value).name}" for _, flag, value, _ in BAD_VALUES],
)
def test_bad_value_same_error_on_stage_and_pipeline(
    tmp_path, toy_args, capsys, stage, flag, value, message
):
    errors = []
    for argv in (
        [*stage, "--out", tmp_path / "stage", flag, value],
        ["pipeline", *toy_args, flag, value],
    ):
        assert run(argv) == 1, argv
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: {message}\n"] * 2
    assert not (tmp_path / "stage").exists()
    assert not (tmp_path / "run").exists()


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

    def test_success_leaves_stderr_empty(self, tmp_path, toy_args, capsys):
        assert run(["pipeline", *toy_args]) == 0
        assert capsys.readouterr().err == ""

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

    def test_config_file_equals_flags(self, tmp_path, toy_args):
        settings = {"iterations": "3", "merges": "20", "segments": "tgt,lex",
                    "mode": "simple", "vocab_threshold": "2"}
        out = tmp_path / "run"
        config = tmp_path / "run.conf"
        config.write_text(
            f"src = {data_path('toy.src')}\ntgt = {data_path('toy.tgt')}\n"
            f"out = {out}\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()),
            encoding="utf-8",
        )
        assert run(["pipeline", "--config", config]) == 0
        names = [*cli.PIPELINE_ARTIFACTS, cli.RUN_MANIFEST]
        from_file = {name: (out / name).read_bytes() for name in names}
        flags = [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)]
        assert run(["pipeline", *toy_args, *flags]) == 0
        assert {name: (out / name).read_bytes() for name in names} == from_file
        config_section = json.loads(from_file[cli.RUN_MANIFEST])["config"]
        assert config_section == {"src": data_path("toy.src"), "tgt": data_path("toy.tgt"),
                                  "out": str(out), **settings}

    def test_pipeline_equals_chained_subcommands(self, tmp_path):
        src = data_path("toy.src")
        tgt = data_path("toy.tgt")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["pipeline", "--src", src, "--tgt", tgt, "--out", a])
        for argv in (
            ["align", "--src", src, "--tgt", tgt, "--out", b],
            ["symmetrize", "--src", src, "--tgt", tgt, "--out", b],
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
        # no *.tmp and no LOCK is left behind in either directory
        assert sorted(p.name for p in a.iterdir()) == sorted(
            [*cli.PIPELINE_ARTIFACTS, cli.RUN_MANIFEST]
        )
        assert sorted(p.name for p in b.iterdir()) == sorted(cli.PIPELINE_ARTIFACTS)

    def test_augmented_line_count(self, tmp_path, toy_args):
        run(["pipeline", *toy_args])
        # 2 sentences, 3 segments, full mode: 2 * 3! examples
        for name in (cli.AUG_SRC, cli.AUG_TGT, cli.AUG_MANIFEST):
            lines = (tmp_path / "run" / name).read_text().splitlines()
            assert len(lines) == 12, name

    def test_simple_mode_has_no_control_token(self, tmp_path, toy_args):
        run(["pipeline", *toy_args, "--mode", "simple"])
        for name in (cli.AUG_SRC, cli.AUG_TGT, cli.AUG_MANIFEST):
            lines = (tmp_path / "run" / name).read_text().splitlines()
            assert len(lines) == 2, name
        lines = (tmp_path / "run" / cli.AUG_SRC).read_text().splitlines()
        assert not lines[0].startswith("<")

    def test_simple_mode_targets_come_back_through_the_decode_tools(
        self, tmp_path, toy_args, capsys
    ):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args, "--mode", "simple"]) == 0
        extracted = tmp_path / "extracted.tgt"
        assert run(["extract", "--input", out / cli.AUG_TGT, "--kind", "tgt",
                    "--output", extracted]) == 0
        assert extracted.read_bytes() == (out / cli.TGT_BPE).read_bytes()
        assert run(["bleu", "--hyp", extracted, "--ref", out / cli.TGT_BPE]) == 0
        assert capsys.readouterr().out.startswith("BLEU = 100.00 ")
        consensus = tmp_path / "consensus.tgt"
        assert run(["mbr", extracted, out / cli.TGT_BPE, "--output", consensus]) == 0
        assert consensus.read_bytes() == extracted.read_bytes()
        assert capsys.readouterr().err == ""

    def test_lock_blocks_concurrent_runs(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / cli.LOCK_FILE).touch()
        for command in OUT_COMMANDS:
            assert run(toy_argv(command, out)) == 1, command
            # an empty lock names no owner
            assert capsys.readouterr().err == (
                f"error: output directory is locked; remove {out / cli.LOCK_FILE} "
                "if no other run is active\n"
            ), command
            assert sorted(p.name for p in out.iterdir()) == [cli.LOCK_FILE]
            assert (out / cli.LOCK_FILE).read_bytes() == b""

    def test_lock_names_its_owner(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        # a LOCK that is not ASCII names no owner
        for owner, by in ((b"12345", " by pid 12345"), (b"\xff\xfe", "")):
            (out / cli.LOCK_FILE).write_bytes(owner)
            for command in OUT_COMMANDS:
                assert run(toy_argv(command, out)) == 1, command
                assert capsys.readouterr().err == (
                    f"error: output directory is locked{by}; remove "
                    f"{out / cli.LOCK_FILE} if no other run is active\n"
                ), command
                assert (out / cli.LOCK_FILE).read_bytes() == owner

    def test_lock_holds_the_running_pid(self, tmp_path, toy_args, monkeypatch):
        seen = []
        stage = cli.stage_augment

        def spy(**kwargs):
            seen.append((kwargs["out"] / cli.LOCK_FILE).read_text(encoding="ascii"))
            stage(**kwargs)

        monkeypatch.setattr(cli, "stage_augment", spy)
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        assert run(["augment", "--out", out]) == 0
        assert seen == [f"{os.getpid()}\n"] * 2
        assert not (out / cli.LOCK_FILE).exists()

    def test_lock_write_failure_releases_the_lock(self, tmp_path, capsys, monkeypatch):
        def full(fd, data):
            raise OSError(28, "No space left on device")

        lock = tmp_path / "run" / cli.LOCK_FILE
        for command in ("pipeline", "align"):
            monkeypatch.setattr(cli.os, "write", full)
            assert run(toy_argv(command, tmp_path / "run")) == 1, command
            monkeypatch.undo()
            assert capsys.readouterr().err == (
                f"error: cannot write {lock}: No space left on device\n"
            )
            assert not lock.exists()

    @pytest.mark.parametrize("holder", [None, "12345"], ids=["removed", "taken"])
    def test_lock_changed_during_the_run_is_left_alone(
        self, tmp_path, toy_args, capsys, monkeypatch, holder
    ):
        """A LOCK removed mid-run, or since taken by another pid, is not
        this run's: the run still succeeds and leaves the LOCK as it is."""
        out = tmp_path / "run"
        lock = out / cli.LOCK_FILE
        stage = cli.stage_augment

        def change_lock(**kwargs):
            if holder is None:
                lock.unlink()
            else:
                lock.write_text(holder, encoding="ascii")
            stage(**kwargs)

        monkeypatch.setattr(cli, "stage_augment", change_lock)
        for argv in (["pipeline", *toy_args], ["augment", "--out", out]):
            assert run(argv) == 0, argv
            assert capsys.readouterr().err == ""
            if holder is None:
                assert not lock.exists()
            else:
                assert lock.read_text(encoding="ascii") == holder
                lock.unlink()

    @pytest.mark.parametrize("command", ["pipeline", "align"])
    def test_lock_that_cannot_be_created_exits_cleanly(
        self, tmp_path, capsys, monkeypatch, command
    ):
        lock = tmp_path / "run" / cli.LOCK_FILE
        create = os.open

        def read_only(path, flags, *args):
            if Path(path) == lock:
                raise OSError(13, "Permission denied")
            return create(path, flags, *args)

        monkeypatch.setattr(cli.os, "open", read_only)
        assert run(toy_argv(command, tmp_path / "run")) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {lock}: Permission denied\n"
        )
        assert list((tmp_path / "run").iterdir()) == []

    def test_failed_stage_is_named_and_releases_the_lock(self, tmp_path, toy_args, capsys):
        out = tmp_path / "run"
        (out / cli.LEXICON).mkdir(parents=True)
        assert run(["pipeline", *toy_args]) == 1
        assert capsys.readouterr().err == (
            f"error: stage lexicon failed: cannot write {out / cli.LEXICON}: "
            "Is a directory\n"
        )
        assert sorted(p.name for p in out.iterdir()) == sorted([
            cli.TABLE_T2S, cli.TABLE_S2T, cli.ALIGN_T2S, cli.ALIGN_S2T,
            cli.ALIGN_INTERSECT, cli.LEXICON,
        ])

    def test_ali_out_of_range_link_names_file_and_line(self, tmp_path, toy_args, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        (out / cli.ALIGN_T2S).write_text("0-0 1-1\n9-0 1-1\n", encoding="utf-8")
        assert run(["ali", "--tgt", data_path("toy.tgt"), "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{cli.ALIGN_T2S}:2: link 9 out of range" in err

    # line 2 of a toy run's file replaced by the line, or dropped if None;
    # the stage must name the file, and the line for a bad link
    @pytest.mark.parametrize(
        ("stage", "name", "line", "message"),
        [("symmetrize", cli.ALIGN_T2S, "9-0 1-1",
          "link 9 out of range for conditioning length 2"),
         ("symmetrize", cli.ALIGN_S2T, "9-0 1-1",
          "link 9 out of range for conditioning length 2"),
         ("symmetrize", cli.ALIGN_T2S, "0-9", "link to emitted position 9 out of range"),
         ("symmetrize", cli.ALIGN_S2T, None, "1 lines for 2 sentence pairs"),
         ("lexicon", cli.ALIGN_INTERSECT, "0-0 9-1",
          "link 9 out of range for source length 2"),
         ("lexicon", cli.ALIGN_INTERSECT, "0-9",
          "link to target position 9 out of range for target length 2"),
         ("lexicon", cli.ALIGN_INTERSECT, None, "1 lines for 2 sentence pairs")],
        ids=["tgt_to_src", "src_to_tgt", "emitted", "directional-missing-line",
             "intersect-source", "intersect-target", "intersect-missing-line"],
    )
    def test_symmetrize_out_of_range_link_names_file_and_line(
        self, tmp_path, toy_args, capsys, stage, name, line, message
    ):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        text = "0-0 1-1\n" if line is None else f"0-0 1-1\n{line}\n"
        (out / name).write_text(text, encoding="utf-8")
        assert run([stage, *toy_args]) == 1
        where = f"{out / name}:" if line is None else f"{out / name}:2:"
        assert f"{where} {message}" in capsys.readouterr().err
        assert not (out / cli.LOCK_FILE).exists()

    @pytest.mark.parametrize(
        ("line", "message"),
        [("x\ty\tnotanint", "count 'notanint' is not a non-negative integer"),
         ("buch\tZZZ\t1", "source word 'buch' listed twice"),
         ("buch\t\t1", "empty source or target word")],
        ids=["non-integer", "repeated", "empty-target"],
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

    @pytest.mark.parametrize("word", ["foo bar", "<tgt>"], ids=["space", "marker"])
    def test_lex_rejects_a_lexicon_word_that_is_not_a_token(
        self, tmp_path, toy_args, capsys, word
    ):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        lexicon = out / cli.LEXICON
        lines = lexicon.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("buch\t")
        lines[0] = f"buch\t{word}\t1"
        lexicon.write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = (out / cli.LEX_WORDS).read_bytes()
        assert run(["lex", "--src", data_path("toy.src"), "--out", out]) == 1
        err = capsys.readouterr().err
        assert f"{cli.LEXICON}:1: target word {word!r} holds whitespace" in err
        assert (out / cli.LEX_WORDS).read_bytes() == before

    # a stage-written file, a stage that reads it, and what that stage calls
    # each token: every stage reads the file as a corpus side
    @pytest.mark.parametrize(
        ("name", "stage", "what"),
        [(cli.LEX_WORDS, "ali", "token"), (cli.SRC_BPE, "augment", "token"),
         (cli.TGT_BPE, "augment", "token"), (cli.LEX_BPE, "augment", "token"),
         (cli.ALI_BPE, "augment", "token"), (cli.LEX_WORDS, "bpe-apply", "token"),
         (cli.ALI_WORDS, "bpe-apply", "token")],
    )
    def test_angle_bracket_in_a_stage_written_file_names_file_and_line(
        self, tmp_path, toy_args, capsys, name, stage, what
    ):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = " ".join(["<x>", *lines[1].split()[1:]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(toy_argv(stage, out)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:2: {what} '<x>' contains a reserved angle bracket\n"
        )

    def test_failed_rewrite_keeps_previous_artifacts(
        self, tmp_path, toy_args, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        assert not list(out.glob("*.tmp"))
        names = (cli.AUG_SRC, cli.AUG_TGT, cli.AUG_MANIFEST)
        before = {name: (out / name).read_bytes() for name in names}

        build = augment.augment_corpus

        def one_example_then_fail(sources, segments, mode):
            yield next(iter(build(sources, segments, mode)))
            raise LexaliError("stopped after one example")

        monkeypatch.setattr(augment, "augment_corpus", one_example_then_fail)
        assert run(["augment", "--out", out]) == 1
        assert capsys.readouterr().err == "error: stopped after one example\n"
        assert {name: (out / name).read_bytes() for name in names} == before
        assert not list(out.glob("*.tmp"))

    def test_augment_reads_only_the_configured_sides(self, tmp_path, toy_args):
        clean, out = tmp_path / "clean", tmp_path / "run"
        for path in (clean, out):
            assert run(["pipeline", *toy_args[:4], "--out", path, "--segments", "tgt"]) == 0
        (out / cli.LEX_BPE).write_text("a <b>\n", encoding="utf-8")
        (out / cli.ALI_BPE).unlink()
        assert run(["augment", "--out", out, "--segments", "tgt"]) == 0
        for name in (cli.AUG_SRC, cli.AUG_TGT, cli.AUG_MANIFEST):
            assert (out / name).read_bytes() == (clean / name).read_bytes()

    def test_empty_train_ali_line_passes_bpe_apply_and_augment(self, tmp_path, toy_args):
        # an all-NULL target gives an empty ali
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        ali = out / cli.ALI_WORDS
        ali.write_text(ali.read_text().splitlines()[0] + "\n\n")
        assert run(toy_argv("bpe-apply", out)) == 0
        assert (out / cli.ALI_BPE).read_text().splitlines()[1] == ""
        assert run(["augment", "--out", out]) == 0

    @pytest.mark.parametrize("stage", ["ali", "bpe-apply", "bpe-apply-lex", "augment"])
    def test_line_count_mismatch_names_every_file(self, tmp_path, toy_args, capsys, stage):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        short = tmp_path / "one.tgt"
        short.write_text(Path(data_path("toy.tgt")).read_text().splitlines()[0] + "\n")
        if stage == "ali":
            argv = ["ali", "--tgt", short, "--out", out]
            counts = f"{out / cli.LEX_WORDS}=2, {short}=1"
        elif stage == "bpe-apply":
            argv = ["bpe-apply", "--src", data_path("toy.src"), "--tgt", short, "--out", out]
            counts = f"{data_path('toy.src')}=2, {short}=1"
        elif stage == "bpe-apply-lex":
            long = out / cli.LEX_WORDS
            long.write_text(long.read_text() + "ein\n")
            argv = toy_argv("bpe-apply", out)
            counts = f"{data_path('toy.src')}=2, {long}=3, {out / cli.ALI_WORDS}=2"
        else:
            short = out / cli.ALI_BPE
            short.write_text(short.read_text().splitlines()[0] + "\n")
            argv = ["augment", "--out", out]
            counts = ", ".join(
                f"{out / name}={1 if name == cli.ALI_BPE else 2}"
                for name in (cli.SRC_BPE, cli.TGT_BPE, cli.LEX_BPE, cli.ALI_BPE)
            )
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: line counts disagree: {counts}\n"
        # each stage checks its inputs before its first write
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_bpe_apply_names_an_empty_train_lex_line(self, tmp_path, toy_args, capsys):
        out = tmp_path / "run"
        assert run(["pipeline", *toy_args]) == 0
        lex = out / cli.LEX_WORDS
        lex.write_text(lex.read_text().splitlines()[0] + "\n\n")
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run(toy_argv("bpe-apply", out)) == 1
        assert capsys.readouterr().err == f"error: {lex}:2: empty line\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_bpe_learn_empty_corpus_rejected(self, tmp_path, capsys):
        for side in ("src", "tgt"):
            (tmp_path / f"empty.{side}").write_text("")
        assert run(["bpe-learn", "--src", tmp_path / "empty.src",
                    "--tgt", tmp_path / "empty.tgt", "--out", tmp_path / "run"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot build a vocabulary from an empty corpus\n"
        )

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

    def test_extract_repeated_marker_names_file_and_line(self, tmp_path, capsys):
        decoded = tmp_path / "decoded.txt"
        decoded.write_text("<tgt> a\n<tgt> c <tgt> d\n", encoding="utf-8")
        assert run(["extract", "--input", decoded, "--kind", "tgt",
                    "--output", tmp_path / "o.txt"]) == 1
        assert capsys.readouterr().err == (
            f"error: {decoded}:2: marker <tgt> appears 2 times in the output\n"
        )

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

    def test_mbr_rejects_scores_naming_the_output(self, tmp_path, capsys):
        (tmp_path / "c0.txt").write_text("a b\n", encoding="utf-8")
        (tmp_path / "c1.txt").write_text("a c\n", encoding="utf-8")
        out = tmp_path / "same.txt"
        out.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(out)
        assert run([
            "mbr", tmp_path / "c0.txt", tmp_path / "c1.txt",
            "--output", out, "--scores", link,
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: --scores and --output name the same file: {link}\n"
        )
        assert out.read_text(encoding="utf-8") == "old\n"

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
        assert capsys.readouterr().err == (
            f"error: line counts disagree: {tmp_path / 'c0.txt'}=2, {tmp_path / 'c1.txt'}=1\n"
        )

    @pytest.mark.parametrize("command", ["mbr", "extract"])
    def test_unwritable_output_exits_cleanly(self, tmp_path, capsys, command):
        lines = tmp_path / "lines.txt"
        lines.write_text("<tgt> a\n", encoding="utf-8")
        output = tmp_path / "missing" / "out.txt"
        if command == "mbr":
            argv = ["mbr", lines, lines, "--output", output]
        else:
            argv = ["extract", "--input", lines, "--kind", "tgt", "--output", output]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {output}: ")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("command", ["mbr", "extract"])
    def test_output_to_stdout_pipe(self, tmp_path, command):
        lines = tmp_path / "lines.txt"
        lines.write_text("<tgt> a\n", encoding="utf-8")
        if command == "mbr":
            argv = ["mbr", lines, lines, "--output", "/dev/stdout"]
        else:
            argv = ["extract", "--input", lines, "--kind", "tgt", "--output", "/dev/stdout"]
        result = run_module(argv)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == (b"<tgt> a\n" if command == "mbr" else b"a\n")

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
        assert capsys.readouterr().err == f"error: line counts disagree: {hyp}=1, {ref}=2\n"


@pytest.mark.parametrize("command", [*cli.STAGES, "pipeline"])
@pytest.mark.parametrize(
    ("out", "reason"),
    [("file/x", "Not a directory"), ("file", "File exists")],
    ids=["under-a-file", "a-file"],
)
def test_out_that_cannot_be_created_exits_cleanly(
    tmp_path, capsys, command, out, reason
):
    (tmp_path / "file").write_text("kept\n", encoding="utf-8")
    out = tmp_path / out
    assert run(toy_argv(command, out)) == 1
    assert capsys.readouterr().err == (
        f"error: cannot create output directory {out}: {reason}\n"
    )
    assert (tmp_path / "file").read_text(encoding="utf-8") == "kept\n"


def test_module_entry_point(tmp_path):
    """``python -m lexali.cli`` runs main and exits with its status."""
    version = run_module(["--version"])
    assert (version.returncode, version.stdout, version.stderr) == (
        0, f"lexali {__version__}\n".encode(), b""
    )
    out = tmp_path / "run"
    done = run_module(toy_argv("pipeline", out))
    assert (done.returncode, done.stderr) == (0, b"")
    assert (out / cli.RUN_MANIFEST).is_file()
    bad = run_module([*toy_argv("align", tmp_path / "bad"), "--iterations", "five"])
    assert (bad.returncode, bad.stderr) == (
        1, b"error: iterations must be an integer, got 'five'\n"
    )


def test_missing_input_file_exits_cleanly(tmp_path, capsys):
    assert run([
        "align", "--src", tmp_path / "none.src",
        "--tgt", tmp_path / "none.tgt", "--out", tmp_path,
    ]) == 1
    assert "src path does not exist" in capsys.readouterr().err


def traced_peak(function, *args, **kwargs):
    """The peak of the memory that tracemalloc traces while function runs."""
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peaks traced by tracemalloc, which counts Python's own allocations
    and nearly the same bytes on every run, compared only with each other."""

    def test_augment_streams_its_examples(self, tmp_path):
        out = tmp_path / "run"
        assert run(["pipeline", "--src", data_path("mini.src"),
                    "--tgt", data_path("mini.tgt"), "--out", out]) == 0
        kinds = tuple(augment.SegmentKind)  # the default: lex, ali, tgt
        stage_peak = traced_peak(cli.stage_augment, out=out, segments=kinds, mode="full")

        tracemalloc.start()
        try:
            src, tgt, lex, ali = [
                corpus.read_sentences(out / name)
                for name in (cli.SRC_BPE, cli.TGT_BPE, cli.LEX_BPE, cli.ALI_BPE)
            ]
            segments = dict(zip(kinds, (lex, ali, tgt)))
            inputs_size = tracemalloc.get_traced_memory()[0]
            examples = list(augment.augment_corpus(src, segments, "full"))
            examples_size = tracemalloc.get_traced_memory()[0] - inputs_size
        finally:
            tracemalloc.stop()
        assert len(examples) == 6 * len(src)
        # beyond the sentences it reads, the stage holds less than a quarter
        # of what the list of its examples would
        assert stage_peak - inputs_size < examples_size / 4

    def test_align_holds_one_direction_at_a_time(self, tmp_path):
        # a wide vocabulary makes each direction's table most of its memory
        rng = random.Random(0)
        src_lines, tgt_lines = [], []
        for _ in range(60):
            words = [rng.randrange(2000) for _ in range(rng.randint(5, 30))]
            src_lines.append(" ".join(f"s{w}" for w in words))
            tgt_lines.append(" ".join(f"t{w}" for w in reversed(words)))
        src, tgt = tmp_path / "wide.src", tmp_path / "wide.tgt"
        src.write_text("".join(line + "\n" for line in src_lines), encoding="utf-8")
        tgt.write_text("".join(line + "\n" for line in tgt_lines), encoding="utf-8")
        out = tmp_path / "run"
        out.mkdir()

        pair_corpus = corpus.load_parallel(src, tgt)
        train_peak = max(
            traced_peak(model1.train_model1, pair_corpus, direction, 2)
            for direction in (model1.TGT_TO_SRC, model1.SRC_TO_TGT)
        )
        stage_peak = traced_peak(cli.stage_align, str(src), str(tgt), out, 2)
        assert stage_peak <= 1.15 * train_peak
