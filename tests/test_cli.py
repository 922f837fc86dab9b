"""Command line behavior: option handling, stages, determinism, errors."""

import functools
import gc
import hashlib
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

from lexali import __version__, augment, cli, corpus, model1
from lexali.errors import LexaliError
from heap import traced

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


# sha256 of the `mbr` consensus and `--scores` files for each utility on the
# candidate files of `write_mini_pools`, and the `bleu` line of its rotated
# candidates against mini.tgt; the same on every supported Python version
MINI_DECODE = {
    "chrf": (
        "48807c50002045ad817e628e59136de8e3bd5e6dbc14a62c4c1af47e1078c249",
        "5d5ce0065b7c391e488cc506a8faa65de6ec8fb489435a6af9bae85f10cccb17",
    ),
    "sbleu": (
        "5aea98060be495b29bf8568ff854a03eb85003e10b3a3eb1199f9a9d4ab80eaf",
        "246e9f7181226cd340f701264efec3bfc822d60013e503e6f2974f6787d1013f",
    ),
    "exact": (
        "5aea98060be495b29bf8568ff854a03eb85003e10b3a3eb1199f9a9d4ab80eaf",
        "31c1e8255f873dccb1ec052144e59d08079298381fdf01c6e352e8475befa856",
    ),
}
MINI_BLEU = "BLEU = 79.38 (100.0/79.9/74.8/66.4, BP=1.000)"


def data_path(name):
    return str(DATA / name)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(argv):
    return cli.main([str(a) for a in argv])


def run_module(argv, cwd=None, **env):
    """Run ``python -m lexali.cli`` in a new process on this checkout's
    package, from cwd and with env added to the environment."""
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}
    return subprocess.run(
        [sys.executable, "-m", "lexali.cli", *map(str, argv)],
        capture_output=True, cwd=cwd, env=env, check=False,
    )


# every command that writes into --out
OUT_COMMANDS = ["pipeline", *cli.STAGES]


def toy_argv(command, out, corpus_name="toy", **options):
    """The command on the toy corpus, the bundled corpus ``corpus_name``, or
    the files ``corpus_name``.src and .tgt given a Path, with the corpus
    flags it takes and the flags of those ``options`` (values by option
    name) it takes."""
    names = cli.STAGES[command][1] if command in cli.STAGES else cli.OPTIONS
    prefix = corpus_name if isinstance(corpus_name, Path) else data_path(corpus_name)
    values = {"src": f"{prefix}.src", "tgt": f"{prefix}.tgt", **options}
    flags = [
        flag for name, value in values.items() if name in names
        for flag in ("--" + name.replace("_", "-"), value)
    ]
    return [command, *flags, "--out", out]


def write_mini_pools(directory, lines=200):
    """Six candidate files built from the first ``lines`` lines of mini.tgt:
    the line, the line without its last token, the line rotated by one
    token, the line again, the line followed by its first three tokens, and
    the next line, wrapping round (empty on every tenth line). Pools thus hold duplicates,
    empty candidates and n-grams repeated at every order."""
    text = (DATA / "mini.tgt").read_text(encoding="utf-8")
    targets = [tuple(line.split()) for line in text.splitlines()]
    columns = [[] for _ in range(6)]
    for i, target in enumerate(targets[:lines]):
        candidates = (
            target, target[:-1], target[1:] + target[:1], target, target + target[:3],
            () if i % 10 == 0 else targets[(i + 1) % len(targets)],
        )
        for column, candidate in zip(columns, candidates):
            column.append(" ".join(candidate) + "\n")
    paths = []
    for k, column in enumerate(columns):
        path = directory / f"cand{k}.txt"
        path.write_text("".join(column), encoding="utf-8")
        paths.append(path)
    return paths


@pytest.fixture
def toy_args(tmp_path):
    return [
        "--src", data_path("toy.src"),
        "--tgt", data_path("toy.tgt"),
        "--out", tmp_path / "run",
    ]


class TestConfig:
    def test_defaults(self, tmp_path):
        args = cli.build_parser().parse_args([
            "pipeline", "--src", data_path("toy.src"), "--tgt", data_path("toy.tgt"),
            "--out", str(tmp_path),
        ])
        assert args.iterations == 5
        assert args.merges == 500
        assert args.mode == "full"
        assert [k.name.lower() for k in args.segments] == ["lex", "ali", "tgt"]
        assert args.vocab_threshold == 1

    def test_missing_required(self, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("align", "pipeline"):
            with pytest.raises(SystemExit) as exit_info:
                run([command, "--tgt", data_path("toy.tgt"), "--out", out])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"usage: lexali {command} ")
            assert "the following arguments are required: --src" in err
            assert not out.exists()

    @pytest.mark.parametrize("command", [*cli.STAGES, "pipeline"])
    def test_help_shows_each_default(self, capsys, command):
        names = cli.STAGES[command][1] if command in cli.STAGES else cli.OPTIONS
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--help"])
        assert exit_info.value.code == 0
        # argparse may wrap a line between a flag's metavar and its help
        help_text = " ".join(capsys.readouterr().out.split())
        for name in names:
            default = cli.OPTIONS[name].get("default")
            expected = "required" if default is None else f"default: {default}"
            flag = "--" + name.replace("_", "-")
            assert re.search(rf"{flag} \S+ {re.escape(expected)}( |$)", help_text), flag

    def test_config_flag_is_a_usage_error(self, tmp_path, toy_args, capsys):
        config = tmp_path / "run.conf"
        config.write_text("iterations = 3\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            run(["pipeline", *toy_args, "--config", config])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
        # so every candidate pool mbr scores holds at least one candidate
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(["mbr", "--output", "o.txt"])
        assert exit_info.value.code == 2
        assert "the following arguments are required: candidates" in capsys.readouterr().err
        with pytest.raises(LexaliError, match="^segments must include tgt$"):
            cli._parse_segments("lex,ali")
        with pytest.raises(LexaliError, match="^duplicate segment kind in 'lex,lex,tgt'$"):
            cli._parse_segments("lex,lex,tgt")
        with pytest.raises(LexaliError, match="^iterations must be an integer, got 'five'$"):
            cli._parse_int("five", "iterations", 1)
        with pytest.raises(LexaliError, match="^iterations must be >= 1, got 0$"):
            cli._parse_int("0", "iterations", 1)


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
    # one digit more than int() converts from a string
    (["align", *BOTH_SIDES], "--iterations", "9" * (sys.get_int_max_str_digits() + 1),
     f"iterations has more than {sys.get_int_max_str_digits()} digits"),
    (["align", *BOTH_SIDES], "--out", "", "out must not be empty"),
    (["bpe-learn", *BOTH_SIDES], "--merges", "-1", "merges must be >= 0, got -1"),
    (["bpe-apply", *BOTH_SIDES], "--vocab-threshold", "0",
     "vocab_threshold must be >= 1, got 0"),
    (["augment"], "--segments", "lex", "segments must include tgt"),
    (["augment"], "--segments", "lex,xyz", "unknown segment kind 'xyz'"),
    (["augment"], "--segments", "lex,,tgt", "unknown segment kind ''"),
    (["augment"], "--segments", "lex,lex,tgt", "duplicate segment kind in 'lex,lex,tgt'"),
]


@pytest.mark.parametrize(
    ("stage", "flag", "value", "message"),
    BAD_VALUES,
    # at most 12 characters of a value, so the over-long one gives a short id
    ids=[f"{flag[2:]}={Path(value).name[:12]}" for _, flag, value, _ in BAD_VALUES],
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


def test_bad_mode_is_a_usage_error_on_stage_and_pipeline(tmp_path, toy_args, capsys):
    for argv in (
        ["augment", "--out", tmp_path / "stage", "--mode", "x"],
        ["pipeline", *toy_args, "--mode", "x"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            run(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: lexali {argv[0]} ")
        assert "argument --mode: invalid choice: 'x'" in err
    assert not (tmp_path / "stage").exists()
    assert not (tmp_path / "run").exists()


class TestCorpusInOut:
    """A stage or the pipeline never writes over its own --src or --tgt."""

    @pytest.mark.parametrize(
        ("argv", "flag", "name"),
        [(["pipeline", "--tgt", data_path("toy.tgt")], "--src", cli.LEX_WORDS),
         (["pipeline", "--src", data_path("toy.src")], "--tgt", cli.RUN_MANIFEST),
         (["lex"], "--src", cli.LEX_WORDS),
         (["ali"], "--tgt", cli.ALI_WORDS)],
        ids=["pipeline-src", "pipeline-tgt-manifest", "lex", "ali"],
    )
    def test_input_in_out_is_refused(self, tmp_path, capsys, argv, flag, name):
        out = tmp_path / "run"
        assert run(["pipeline", "--src", data_path("toy.src"),
                    "--tgt", data_path("toy.tgt"), "--out", out]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        path = out / name
        assert run([*argv, flag, path, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {flag} names an output file: {path}\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_symlink_into_out_is_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        lex = out / cli.LEX_WORDS
        lex.write_text("das haus\n", encoding="utf-8")
        link = tmp_path / "corpus.src"
        link.symlink_to(lex)
        (tmp_path / "sub").mkdir()
        # another spelling of --out reaches the same file too
        for out_flag in (out, tmp_path / "sub" / ".." / "run"):
            assert run(["lex", "--src", link, "--out", out_flag]) == 1
            assert capsys.readouterr().err == f"error: --src names an output file: {link}\n"
        assert lex.read_text(encoding="utf-8") == "das haus\n"
        assert sorted(p.name for p in out.iterdir()) == [cli.LEX_WORDS]


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
        assert run(["pipeline", *toy_args]) == 0
        first = (tmp_path / "run" / cli.RUN_MANIFEST).read_bytes()
        assert run(["pipeline", *toy_args]) == 0
        second = (tmp_path / "run" / cli.RUN_MANIFEST).read_bytes()
        assert first == second

    def test_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Runs under two hash seeds, from two directories with the same
        relative paths, write the same bytes, manifest included: on mini,
        and on a corpus where most words are seen once, which training
        finds through a set."""
        rng = random.Random(0)
        words = [[rng.randrange(400) for _ in range(rng.randint(3, 9))] for _ in range(60)]
        corpora = {
            "mini": [(DATA / f"mini.{side}").read_text(encoding="utf-8")
                     for side in ("src", "tgt")],
            "hapax": ["".join(" ".join(f"s{w}" for w in line) + "\n" for line in words),
                      "".join(" ".join(f"t{w}" for w in line[::-1]) + "\n" for line in words)],
        }
        for name, (src_text, tgt_text) in corpora.items():
            runs = []
            for seed in ("0", "1"):
                work = tmp_path / f"{name}-{seed}"
                work.mkdir()
                (work / "c.src").write_text(src_text, encoding="utf-8")
                (work / "c.tgt").write_text(tgt_text, encoding="utf-8")
                done = run_module(
                    ["pipeline", "--src", "c.src", "--tgt", "c.tgt", "--out", "run"],
                    cwd=work, PYTHONHASHSEED=seed,
                )
                assert (done.returncode, done.stderr) == (0, b"")
                runs.append({p.name: p.read_bytes() for p in (work / "run").iterdir()})
            assert cli.RUN_MANIFEST in runs[0]
            assert runs[0] == runs[1], name

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

    def test_flags_recorded_in_manifest(self, tmp_path, toy_args):
        settings = {"iterations": "3", "merges": "20", "segments": "tgt,lex",
                    "mode": "simple", "vocab_threshold": "2"}
        flags = [a for k, v in settings.items() for a in ("--" + k.replace("_", "-"), v)]
        assert run(["pipeline", *toy_args, *flags]) == 0
        out = tmp_path / "run"
        manifest = json.loads((out / cli.RUN_MANIFEST).read_text(encoding="utf-8"))
        config = {"src": data_path("toy.src"), "tgt": data_path("toy.tgt"),
                  "out": str(out), **settings}
        assert manifest["config"] == config
        canonical = "\n".join(f"{k} = {v}" for k, v in sorted(config.items()))
        assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_pipeline_equals_chained_subcommands(self, tmp_path):
        self.check_pipeline_equals_chained_subcommands(tmp_path, "toy")

    def test_pipeline_equals_chained_subcommands_on_mini(self, tmp_path):
        # the pipeline hands each stage's values on in memory; each
        # subcommand reads its files itself
        self.check_pipeline_equals_chained_subcommands(tmp_path, "mini")

    def test_pipeline_equals_chained_subcommands_on_an_empty_ali_line(self, tmp_path):
        pairs = [("der hund", "the dog"), ("die katze", "the cat"),
                 ("das haus", "the house"), ("der", "the")]
        for side, lines in zip(("src", "tgt"), zip(*pairs)):
            (tmp_path / f"four.{side}").write_text("".join(f"{line}\n" for line in lines))
        self.check_pipeline_equals_chained_subcommands(tmp_path, tmp_path / "four")
        # "the" aligns to NULL, so the last pair's ali is empty
        assert (tmp_path / "a" / cli.ALI_WORDS).read_text().splitlines()[-1] == ""

    def test_pipeline_equals_chained_subcommands_with_other_options(self, tmp_path):
        # augment leaves train.lex.bpe unread, which the pipeline holds all
        # the same until augment, its last reader in STAGES, has run
        self.check_pipeline_equals_chained_subcommands(
            tmp_path, "mini", segments="ali,tgt", mode="simple", merges="50",
            vocab_threshold="2",
        )

    @staticmethod
    def check_pipeline_equals_chained_subcommands(tmp_path, corpus_name, **options):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run(toy_argv("pipeline", a, corpus_name, **options)) == 0
        for command in cli.STAGES:
            assert run(toy_argv(command, b, corpus_name, **options)) == 0, command
        for name in cli.PIPELINE_ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # no *.tmp and no LOCK is left behind in either directory
        assert sorted(p.name for p in a.iterdir()) == sorted(
            [*cli.PIPELINE_ARTIFACTS, cli.RUN_MANIFEST]
        )
        assert sorted(p.name for p in b.iterdir()) == sorted(cli.PIPELINE_ARTIFACTS)

    def test_augmented_line_count(self, tmp_path, toy_args):
        assert run(["pipeline", *toy_args]) == 0
        # 2 sentences, 3 segments, full mode: 2 * 3! examples
        for name in (cli.AUG_SRC, cli.AUG_TGT, cli.AUG_MANIFEST):
            lines = (tmp_path / "run" / name).read_text().splitlines()
            assert len(lines) == 12, name

    def test_simple_mode_has_no_control_token(self, tmp_path, toy_args):
        assert run(["pipeline", *toy_args, "--mode", "simple"]) == 0
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

    @pytest.mark.parametrize("command", [c for c, (*_, reads, _) in cli.STAGES.items() if reads])
    def test_subcommand_missing_artifacts_fails(self, tmp_path, capsys, command):
        """On an empty --out, a stage fails on the first file it reads from
        there, and leaves the directory empty."""
        out = tmp_path / "run"
        out.mkdir()
        assert run(toy_argv(command, out)) == 1
        first = out / cli.STAGES[command][2][0]
        assert capsys.readouterr().err == (
            f"error: cannot read {first}: No such file or directory\n"
        )
        assert list(out.iterdir()) == []


class TestSharedCorpus:
    """One pipeline command reads --src and --tgt once, in align, and every
    later stage works on that copy, and on the values earlier stages wrote
    to --out as they wrote them; a stage subcommand reads its own files."""

    @staticmethod
    def corpus_reads(monkeypatch, argv):
        """The paths of the corpus files the call reads, once per read."""
        reads = []
        read_lines = corpus.read_lines

        def recording(path):
            reads.append(str(path))
            return read_lines(path)

        monkeypatch.setattr(corpus, "read_lines", recording)
        assert run(argv) == 0
        return [path for path in reads if path in (data_path("toy.src"), data_path("toy.tgt"))]

    def test_pipeline_reads_each_input_once(self, tmp_path, monkeypatch):
        reads = self.corpus_reads(monkeypatch, toy_argv("pipeline", tmp_path / "run"))
        assert sorted(reads) == [data_path("toy.src"), data_path("toy.tgt")]

    @pytest.mark.parametrize(("command", "side"), [("lex", "src"), ("ali", "tgt")])
    def test_one_side_stage_reads_only_its_side(self, tmp_path, monkeypatch, command, side):
        out = tmp_path / "run"
        assert run(toy_argv("pipeline", out)) == 0
        reads = self.corpus_reads(monkeypatch, toy_argv(command, out))
        assert reads == [data_path(f"toy.{side}")]

    def test_input_changed_after_align_is_not_read_again(self, tmp_path, monkeypatch):
        """Stages after align work on the corpus align read, even when
        --src changes under the running pipeline."""
        src, tgt = tmp_path / "c.src", tmp_path / "c.tgt"
        for side, path in (("src", src), ("tgt", tgt)):
            path.write_bytes(Path(data_path(f"toy.{side}")).read_bytes())
        argv = ["--src", src, "--tgt", tgt]
        assert run(["pipeline", *argv, "--out", tmp_path / "untouched"]) == 0
        stage_align = cli.stage_align

        def align_then_drop_a_line(*args, **kwargs):
            stage_align(*args, **kwargs)
            src.write_text("".join(src.read_text().splitlines(True)[:-1]))

        monkeypatch.setattr(cli, "stage_align", align_then_drop_a_line)
        assert run(["pipeline", *argv, "--out", tmp_path / "edited"]) == 0
        for name in cli.PIPELINE_ARTIFACTS:
            assert (tmp_path / "edited" / name).read_bytes() == (
                tmp_path / "untouched" / name
            ).read_bytes(), name

    def test_out_file_changed_after_lex_is_not_read_again(self, tmp_path, monkeypatch):
        """Stages after lex work on the sentences lex wrote, even when
        train.lex changes under the running pipeline."""
        untouched, edited = tmp_path / "untouched", tmp_path / "edited"
        assert run(toy_argv("pipeline", untouched)) == 0
        stage_lex = cli.stage_lex

        def lex_then_drop_a_line(*args, **kwargs):
            stage_lex(*args, **kwargs)
            lex = edited / cli.LEX_WORDS
            lex.write_text("".join(lex.read_text().splitlines(True)[:-1]))

        monkeypatch.setattr(cli, "stage_lex", lex_then_drop_a_line)
        assert run(toy_argv("pipeline", edited)) == 0
        assert len((edited / cli.LEX_WORDS).read_text().splitlines()) == 1
        for name in cli.PIPELINE_ARTIFACTS:
            if name != cli.LEX_WORDS:
                assert (edited / name).read_bytes() == (untouched / name).read_bytes(), name


# ("read", path) for each file opened for reading and ("write", path) for
# each rename target, on the list observed_io sets here for one call; an
# audit hook cannot be removed, so it records nothing while no list is set
_FILE_EVENTS: list[list[tuple[str, object]]] = []


def _record_file_event(event, args):
    if not _FILE_EVENTS:
        return
    if event == "open" and isinstance(args[1], str) and "r" in args[1]:
        _FILE_EVENTS[-1].append(("read", args[0]))
    elif event == "os.rename":
        _FILE_EVENTS[-1].append(("write", args[1]))


@functools.cache
def _install_file_audit_hook():
    sys.addaudithook(_record_file_event)


def observed_io(argv, out):
    """The exit code of the call, the names of the files in ``out`` it reads,
    in the order it opens them, and the names it renames into place there;
    LOCK is left out. Every module opens and renames files itself, so an
    audit hook sees them whichever helper a module imported."""
    _install_file_audit_hook()
    events = []
    _FILE_EVENTS.append(events)
    try:
        code = run(argv)
    finally:
        _FILE_EVENTS.pop()
    where = os.path.realpath(out)
    files = {"read": [], "write": []}
    for kind, path in events:
        if isinstance(path, (str, bytes, os.PathLike)):
            directory, name = os.path.split(os.path.realpath(os.fsdecode(path)))
            if directory == where and name != cli.LOCK_FILE:
                files[kind].append(name)
    return code, files["read"], files["write"]


class TestDeclaredFiles:
    """Each stage reads from --out only the artifacts STAGES declares, in
    its order, and writes exactly the ones it declares."""

    @pytest.mark.parametrize("command", cli.STAGES)
    def test_stage_reads_and_writes_what_it_declares(self, tmp_path, command):
        out = tmp_path / "run"
        assert run(toy_argv("pipeline", out)) == 0
        _, _, reads, writes = cli.STAGES[command]
        code, read, written = observed_io(toy_argv(command, out), out)
        assert code == 0
        assert read == list(reads)
        assert sorted(written) == sorted(writes)

    def test_pipeline_reads_and_writes_what_its_stages_declare(self, tmp_path):
        out = tmp_path / "run"
        code, read, written = observed_io(toy_argv("pipeline", out), out)
        assert code == 0
        # symmetrize's reads of align's two alignment files, then every
        # artifact once for the manifest; every other value a stage reads
        # from --out is handed on in memory
        assert read == [*cli.STAGES["symmetrize"][2], *cli.PIPELINE_ARTIFACTS]
        assert sorted(written) == sorted([*cli.PIPELINE_ARTIFACTS, cli.RUN_MANIFEST])
        assert len(set(cli.PIPELINE_ARTIFACTS)) == len(cli.PIPELINE_ARTIFACTS)

    def test_readme_table_names_each_declared_file(self):
        """Each stage row of the README's Subcommands table names its
        declared reads, in order, and its declared writes."""
        readme = Path(__file__).parents[1] / "README.md"
        rows = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip("|").split(" | ")]
            if len(cells) == 4 and (command := cells[0].strip("`")) in cli.STAGES:
                rows[command] = [
                    [name for name in re.findall(r"`([^`]+)`", cell) if not name.startswith("-")]
                    for cell in cells[2:]
                ]
        assert rows == {
            command: [list(reads), list(writes)]
            for command, (*_, reads, writes) in cli.STAGES.items()
        }


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

    @pytest.mark.parametrize(
        ("argv", "flag", "named"),
        [
            (["mbr", "c0.txt", "c1.txt", "--output", "c0.txt"], "--output", "c0.txt"),
            (["mbr", "c0.txt", "c1.txt", "--output", "o.txt", "--scores", "c1.txt"],
             "--scores", "c1.txt"),
            # another spelling of the input's path
            (["extract", "--input", "c0.txt", "--kind", "tgt", "--output", "sub/../c0.txt"],
             "--output", "sub/../c0.txt"),
        ],
        ids=["mbr-output", "mbr-scores", "extract-output"],
    )
    def test_output_naming_an_input_is_refused(self, tmp_path, capsys, argv, flag, named):
        (tmp_path / "sub").mkdir()
        inputs = {tmp_path / name: f"<tgt> {name}\n" for name in ("c0.txt", "c1.txt")}
        for path, text in inputs.items():
            path.write_text(text, encoding="utf-8")
        assert run([tmp_path / arg if arg.endswith(".txt") else arg for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {flag} names an input file: {tmp_path / named}\n"
        assert {path: path.read_text(encoding="utf-8") for path in inputs} == inputs
        assert not (tmp_path / "o.txt").exists()

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

    @pytest.mark.parametrize("utility", sorted(MINI_DECODE))
    def test_mbr_on_mini_pools_matches_pinned_checksums(self, tmp_path, utility):
        out, scores = tmp_path / "consensus.txt", tmp_path / "scores.txt"
        assert run([
            "mbr", *write_mini_pools(tmp_path), "--utility", utility,
            "--output", out, "--scores", scores,
        ]) == 0
        assert (sha256_file(out), sha256_file(scores)) == MINI_DECODE[utility]

    def test_bleu_on_mini_pools_matches_pinned_line(self, tmp_path, capsys):
        rotated = write_mini_pools(tmp_path, lines=1000)[2]
        assert run(["bleu", "--hyp", rotated, "--ref", data_path("mini.tgt")]) == 0
        assert capsys.readouterr().out == MINI_BLEU + "\n"

    def test_bleu_mismatch_fails(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        hyp.write_text("a\n", encoding="utf-8")
        ref.write_text("a\nb\n", encoding="utf-8")
        assert run(["bleu", "--hyp", hyp, "--ref", ref]) == 1
        assert capsys.readouterr().err == f"error: line counts disagree: {hyp}=1, {ref}=2\n"


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def alone(capsys, argv):
    """The outcome of the call in a process that has made no other call."""
    cli.build_parser.cache_clear()
    return outcome(capsys, argv)


class TestCachedParser:
    """One parser serves every ``cli.main`` call of a process."""

    def test_scores_flag_does_not_carry_over(self, tmp_path):
        c0, c1, c2 = write_mini_pools(tmp_path, lines=20)[:3]
        out, scores = tmp_path / "consensus.txt", tmp_path / "scores.txt"
        assert run(["mbr", c0, c1, "--output", out, "--scores", scores]) == 0
        written = scores.read_bytes()
        assert run(["mbr", c0, c2, "--output", out]) == 0
        assert scores.read_bytes() == written

    def test_usage_error_then_valid_call(self, tmp_path, capsys):
        c0, c1 = write_mini_pools(tmp_path, lines=20)[:2]
        out = tmp_path / "consensus.txt"
        usage_error = ["mbr", "--output", out]
        valid = ["mbr", c0, c1, "--output", out]
        expected = [alone(capsys, usage_error)]
        assert expected[0][0] == 2 and not out.exists()
        expected.append(alone(capsys, valid))
        assert expected[1] == (0, "", "")
        consensus = out.read_bytes()
        out.unlink()
        cli.build_parser.cache_clear()
        assert [outcome(capsys, usage_error), outcome(capsys, valid)] == expected
        assert out.read_bytes() == consensus

    def test_error_while_parsing_then_valid_call(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b\n", encoding="utf-8")
        bad = [*toy_argv("align", tmp_path / "bad"), "--iterations", "five"]
        valid = ["bleu", "--hyp", hyp, "--ref", hyp]
        expected = [alone(capsys, bad), alone(capsys, valid)]
        assert expected[0] == (1, "", "error: iterations must be an integer, got 'five'\n")
        assert expected[1][0] == 0
        cli.build_parser.cache_clear()
        assert [outcome(capsys, bad), outcome(capsys, valid)] == expected
        assert not (tmp_path / "bad").exists()

    def test_help_is_the_same_after_other_calls(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        commands = [[], *([name] for name in cli.STAGES),
                    ["extract"], ["mbr"], ["bleu"], ["pipeline"]]
        helps = [alone(capsys, [*command, "--help"]) for command in commands]
        assert all(code == 0 and out.startswith("usage: lexali") for code, out, _ in helps)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b\n", encoding="utf-8")
        cli.build_parser.cache_clear()
        outcome(capsys, ["bleu", "--hyp", hyp, "--ref", hyp])
        outcome(capsys, ["mbr", "--output", hyp])
        assert [outcome(capsys, [*command, "--help"]) for command in commands] == helps


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


def test_import_loads_neither_dataclasses_nor_inspect():
    """Every stage runs as its own short process, and a dataclass generates
    and compiles its methods on each import: importing the CLI in a new
    interpreter must load neither ``dataclasses`` nor ``inspect``. Only the
    modules the import itself loads count, not those of interpreter start-up."""
    probe = ("import sys; before = set(sys.modules); import lexali.cli; "
             "print(*sorted({'dataclasses', 'inspect'} & (sys.modules.keys() - before)))")
    src = Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout == b"\n"


def test_missing_input_file_exits_cleanly(tmp_path, capsys):
    assert run([
        "align", "--src", tmp_path / "none.src",
        "--tgt", tmp_path / "none.tgt", "--out", tmp_path,
    ]) == 1
    assert "src path does not exist" in capsys.readouterr().err


def test_invalid_utf8_input_exits_cleanly(tmp_path, capsys):
    src = tmp_path / "bad.src"
    src.write_bytes(b"das haus\n\xffx\n")
    assert run(["align", "--src", src, "--tgt", data_path("toy.tgt"),
                "--out", tmp_path / "run"]) == 1
    assert capsys.readouterr().err == f"error: {src}: invalid UTF-8 at byte offset 9\n"


def write_wide_corpus(directory):
    """60 pairs over a 2,000-word vocabulary per side, so most words are seen
    once and each direction's table is most of align's memory."""
    rng = random.Random(0)
    src_lines, tgt_lines = [], []
    for _ in range(60):
        words = [rng.randrange(2000) for _ in range(rng.randint(5, 30))]
        src_lines.append(" ".join(f"s{w}" for w in words))
        tgt_lines.append(" ".join(f"t{w}" for w in reversed(words)))
    src, tgt = directory / "wide.src", directory / "wide.tgt"
    src.write_text("".join(line + "\n" for line in src_lines), encoding="utf-8")
    tgt.write_text("".join(line + "\n" for line in tgt_lines), encoding="utf-8")
    return src, tgt


class TestMemory:
    """Peaks traced by tracemalloc, which counts Python's own allocations
    and nearly the same bytes on every run, compared only with each other."""

    def test_augment_streams_its_examples(self, tmp_path):
        out = tmp_path / "run"
        assert run(["pipeline", "--src", data_path("mini.src"),
                    "--tgt", data_path("mini.tgt"), "--out", out]) == 0
        kinds = tuple(augment.SegmentKind)  # the default: lex, ali, tgt
        stage_peak = traced(cli.stage_augment, out=out, segments=kinds, mode="full")[2]
        # read as the stage reads them, one str per distinct word
        (src, tgt, lex, ali), inputs_size, _ = traced(lambda: [
            corpus.load_sentences(out / name, empty_ok=name == cli.ALI_BPE)
            for name in (cli.SRC_BPE, cli.TGT_BPE, cli.LEX_BPE, cli.ALI_BPE)
        ])
        segments = dict(zip(kinds, (lex, ali, tgt)))
        examples, examples_size, _ = traced(
            lambda: list(augment.augment_corpus(src, segments, "full"))
        )
        assert len(examples) == 6 * len(src)
        # beyond the sentences it reads, the stage holds less than a quarter
        # of what the list of its examples would
        assert stage_peak - inputs_size < examples_size / 4

    def test_pipeline_drops_the_corpus_before_augment(self, tmp_path, monkeypatch):
        """At augment's start inside the pipeline, the pipeline holds nothing
        beyond augment's declared inputs: they are the only values it holds,
        and it holds no more memory than augment on its own holds once it
        has read them."""
        out = tmp_path / "run"
        cli.build_parser()  # cached, so that neither traced run builds it
        held = []
        stage_augment = cli.stage_augment

        def augment_after_noting_what_is_held(**kwargs):
            # collected as traced collects; both notes are read in the same
            # kind of trace, so what an outer trace holds cancels out of
            # their difference
            gc.collect()
            held.append((tracemalloc.get_traced_memory()[0], sorted(cli._held or ())))
            stage_augment(**kwargs)

        monkeypatch.setattr(cli, "stage_augment", augment_after_noting_what_is_held)
        for argv in (toy_argv("pipeline", out, "mini"), ["augment", "--out", out]):
            assert traced(run, argv)[0] == 0
        (in_pipeline, names), (alone, nothing) = held
        reads = cli.STAGES["augment"][2]
        assert (names, nothing) == (sorted(reads), [])
        inputs_size = traced(lambda: [
            corpus.load_sentences(out / name, empty_ok=name == cli.ALI_BPE) for name in reads
        ])[1]
        pair_corpus, corpus_size, _ = traced(
            corpus.load_parallel, data_path("mini.src"), data_path("mini.tgt")
        )
        assert len(pair_corpus.pairs) == 1000
        # held, the corpus would add all of corpus_size
        assert in_pipeline - alone < inputs_size + corpus_size / 4

    def test_align_holds_one_direction_at_a_time(self, tmp_path):
        src, tgt = write_wide_corpus(tmp_path)
        out = tmp_path / "run"
        out.mkdir()

        pair_corpus, corpus_size, _ = traced(corpus.load_parallel, src, tgt)
        # each direction's table size and training peak, with no table held
        # while the next direction trains
        table_sizes, train_peaks = zip(*[
            traced(model1.train_model1, pair_corpus, direction, 2)[1:]
            for direction in (model1.TGT_TO_SRC, model1.SRC_TO_TGT)
        ])
        stage_peak = traced(cli.stage_align, str(src), str(tgt), out, 2)[2]
        # the stage also holds the corpus it reads and formats each table
        # after training it, but a first table kept while the second
        # direction trains would not fit
        assert stage_peak < corpus_size + max(train_peaks) + max(table_sizes)

    def test_table_write_holds_a_fraction_of_the_table(self, tmp_path):
        """Beyond the table, writing it holds its sorted rows, one row's text
        and the text of each shared row until its last word is written:
        under 0.6 of the table's traced size (0.50 on CPython 3.11). A memo
        of every distinct value in the table reads 1.3."""
        pair_corpus = corpus.load_parallel(*write_wide_corpus(tmp_path))
        for direction in (model1.TGT_TO_SRC, model1.SRC_TO_TGT):
            table, table_size, _ = traced(model1.train_model1, pair_corpus, direction, 2)
            write_peak = traced(model1.write_table, table, tmp_path / "table.txt")[2]
            assert write_peak < 0.6 * table_size
