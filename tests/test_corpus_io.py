"""Line files: loading, validation, replacing writes and word counts."""

import os
import random
import re
import stat
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexali import corpus
from lexali.errors import LexaliError
from heap import traced
from oracles import load_parallel_loop_oracle, load_sentences_loop_oracle, tokenize_oracle

TOKEN = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
SENTENCE = st.lists(TOKEN, min_size=1, max_size=8).map(tuple)


def test_load_parallel_basic(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("das haus\ndas buch\n", encoding="utf-8")
    tgt.write_text("the house\nthe book\n", encoding="utf-8")
    loaded = corpus.load_parallel(src, tgt)
    assert loaded.pairs == (
        (("das", "haus"), ("the", "house")),
        (("das", "buch"), ("the", "book")),
    )


def test_whitespace_collapses(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("  a \t b  \n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    loaded = corpus.load_parallel(src, tgt)
    assert loaded.pairs[0][0] == ("a", "b")


def test_tokenization_matches_character_scan(tmp_path):
    """100 fuzzed spacing patterns agree with a char-scanning tokenizer."""
    rng = random.Random(7)
    words = ["ein", "kleiner", "test", "x", "yz"]
    separators = [" ", "  ", " \t ", "\t"]
    for _ in range(100):
        line = rng.choice(["", " ", "\t"])
        for _ in range(rng.randint(1, 6)):
            line += rng.choice(words) + rng.choice(separators)
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text(line + "\n", encoding="utf-8")
        tgt.write_text("x\n", encoding="utf-8")
        loaded = corpus.load_parallel(src, tgt)
        assert list(loaded.pairs[0][0]) == tokenize_oracle(line)


def test_empty_line_rejected_with_line_number(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\n\nb\n", encoding="utf-8")
    tgt.write_text("x\ny\nz\n", encoding="utf-8")
    with pytest.raises(LexaliError, match=r"s\.txt:2: empty line"):
        corpus.load_parallel(src, tgt)


def test_line_count_mismatch_names_both_counts(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\nb\nc\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    message = f"line counts disagree: {src}=3, {tgt}=2"
    with pytest.raises(LexaliError, match=f"^{re.escape(message)}$"):
        corpus.load_parallel(src, tgt)


def test_invalid_utf8_names_byte_offset(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_bytes(b"das haus\n\xffx\n")
    tgt.write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(LexaliError, match="byte offset 9"):
        corpus.load_parallel(src, tgt)


@pytest.mark.parametrize("bad", ["<lex>", "a<b", "x>", "<123>"])
def test_angle_bracket_tokens_rejected(tmp_path, bad):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text(f"ok {bad} ok\n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    with pytest.raises(LexaliError, match="reserved angle bracket"):
        corpus.load_parallel(src, tgt)


def test_missing_file_is_a_corpus_error(tmp_path):
    # the path is named once, without the OSError's own copy of it
    path = tmp_path / "nope.txt"
    with pytest.raises(LexaliError) as error:
        corpus.load_sentences(path)
    assert str(error.value) == f"cannot read {path}: No such file or directory"


@given(
    pairs=st.lists(st.tuples(SENTENCE, SENTENCE), min_size=1, max_size=12)
)
def test_write_load_round_trip(tmp_path_factory, pairs):
    tmp = tmp_path_factory.mktemp("corpus")
    original = corpus.ParallelCorpus(pairs=tuple(pairs))
    corpus.write_sentences([src for src, _ in pairs], tmp / "s.txt")
    corpus.write_sentences([tgt for _, tgt in pairs], tmp / "t.txt")
    assert corpus.load_parallel(tmp / "s.txt", tmp / "t.txt") == original


def same_objects(sentences):
    """Whether every distinct word in the sentences is one str object."""
    first = {}
    return all(first.setdefault(word, word) is word for sentence in sentences for word in sentence)


def test_load_parallel_holds_one_object_per_word(tmp_path):
    # words of two or more characters, which str.split makes anew each time
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    src.write_text("das haus\ndas buch ist das\n", encoding="utf-8")
    tgt.write_text("the house das\nthe book is\n", encoding="utf-8")
    pairs = corpus.load_parallel(src, tgt).pairs
    assert same_objects(sentence for pair in pairs for sentence in pair)
    # across lines and across the two sides
    assert pairs[0][0][0] is pairs[1][0][0] is pairs[1][0][3] is pairs[0][1][2]


def test_load_sentences_holds_one_object_per_word(tmp_path):
    path = tmp_path / "ali.txt"
    path.write_text("aa bb\n\nbb aa bb\n", encoding="utf-8")
    sentences = corpus.load_sentences(path, empty_ok=True)
    assert sentences == [("aa", "bb"), (), ("bb", "aa", "bb")]
    assert same_objects(sentences)
    assert sentences[0][1] is sentences[2][0] is sentences[2][2]


def test_load_parallel_holds_less_than_half_of_per_token_copies():
    data = resources.files("lexali") / "data"
    src, tgt = str(data / "mini.src"), str(data / "mini.tgt")
    loaded = traced(corpus.load_parallel, src, tgt)[1]
    copies = traced(lambda: [
        [tuple(line.split()) for line in corpus.read_lines(path)] for path in (src, tgt)
    ])[1]
    assert loaded < copies / 2


SPACES = st.text(
    alphabet=" \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u2028\u3000", min_size=1, max_size=2
)
EDGE = st.just("") | SPACES
WORD = st.text(alphabet="abc", min_size=1, max_size=3)
RESERVED = st.sampled_from(["<lex>", "a<b", "<", "x>", "b>c", ">", "<3>"])


@st.composite
def corpus_text(draw, lines):
    """A file's text: lines of words between runs of unusual whitespace. A
    third of the files are drawn clean; the others may hold empty or blank
    lines, or words with an angle bracket. The last line may lack its
    newline."""
    kind = draw(st.sampled_from(["clean", "blank", "reserved"]))
    word = st.one_of(WORD, RESERVED) if kind == "reserved" else WORD
    text = []
    for _ in range(lines):
        tokens = draw(st.lists(word, min_size=0 if kind == "blank" else 1, max_size=4))
        gaps = [draw(SPACES) for _ in tokens[1:]] + [""]
        words = "".join(token + gap for token, gap in zip(tokens, gaps))
        text.append(draw(EDGE) + words + draw(EDGE))
    return "\n".join(text) + draw(st.sampled_from(["\n", ""]))


def outcome(read, error):
    """What read() returns, or the message of the error it raises."""
    try:
        return read()
    except error as exc:
        return f"raised: {exc}"


@given(data=st.data(), lines=st.integers(0, 6), empty_ok=st.booleans())
def test_load_sentences_equals_line_loop(tmp_path_factory, data, lines, empty_ok):
    path = tmp_path_factory.mktemp("sentences") / "side.txt"
    path.write_text(data.draw(corpus_text(lines)), encoding="utf-8")
    assert outcome(lambda: corpus.load_sentences(path, empty_ok=empty_ok), LexaliError) == (
        outcome(lambda: load_sentences_loop_oracle(path, empty_ok), ValueError)
    )


@given(data=st.data(), lines=st.integers(1, 6), same_count=st.integers(0, 5))
def test_load_parallel_equals_line_loop(tmp_path_factory, data, lines, same_count):
    folder = tmp_path_factory.mktemp("parallel")
    src, tgt = folder / "s.txt", folder / "t.txt"
    src.write_text(data.draw(corpus_text(lines)), encoding="utf-8")
    # most pairs of files have equal line counts, so their lines are checked
    tgt_lines = lines if same_count else data.draw(st.integers(0, 6))
    tgt.write_text(data.draw(corpus_text(tgt_lines)), encoding="utf-8")
    loaded = outcome(lambda: corpus.load_parallel(src, tgt).pairs, LexaliError)
    assert loaded == outcome(lambda: load_parallel_loop_oracle(src, tgt), ValueError)


@pytest.mark.parametrize("src_text, tgt_text, name, fault", [
    # a fault on an earlier line of the target comes before a later one in the source
    ("ab\ncd\n<x>\n", "ab\n \ncd\n", "t.txt", "2: empty line"),
    # on one line, the source's fault comes first
    ("ab <x>\n", "\t\n", "s.txt", "1: token '<x>' contains a reserved angle bracket"),
])
def test_faults_in_both_files_report_the_first(tmp_path, src_text, tgt_text, name, fault):
    src, tgt = tmp_path / "s.txt", tmp_path / "t.txt"
    src.write_text(src_text, encoding="utf-8")
    tgt.write_text(tgt_text, encoding="utf-8")
    with pytest.raises(LexaliError) as error:
        corpus.load_parallel(src, tgt)
    assert str(error.value) == f"{tmp_path / name}:{fault}"
    with pytest.raises(ValueError, match=f"^{re.escape(str(error.value))}$"):
        load_parallel_loop_oracle(src, tgt)


def test_read_sentences_allows_empty_lines(tmp_path):
    path = tmp_path / "cand.txt"
    path.write_text("a b\n\nc\n", encoding="utf-8")
    assert corpus.read_sentences(path) == [("a", "b"), (), ("c",)]


def test_failed_write_keeps_previous_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old line\n")

    def lines():
        yield "new line"
        raise ValueError("stopped after one line")

    with pytest.raises(ValueError, match="stopped after one line"):
        corpus.write_lines(path, lines())
    assert path.read_bytes() == b"old line\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.mark.parametrize("count", [0, 1, 1024, 1025, 2500])
def test_write_lines_across_chunk_boundaries(tmp_path, count):
    lines = [f"line {i}" for i in range(count)]
    corpus.write_lines(tmp_path / "out.txt", (line for line in lines))
    assert (tmp_path / "out.txt").read_bytes() == "".join(
        line + "\n" for line in lines
    ).encode("utf-8")


def test_error_from_the_lines_passes_unchanged(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old line\n")

    def lines():
        yield "new line"
        raise FileNotFoundError(2, "No such file or directory", "input.txt")

    # an input that cannot be read is not reported as "cannot write out.txt"
    with pytest.raises(FileNotFoundError):
        corpus.write_lines(path, lines())
    assert path.read_bytes() == b"old line\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_two_writers_of_one_path_keep_their_own_temporary_files(tmp_path):
    path = tmp_path / "race.out"
    src = Path(corpus.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}
    other = (
        "import sys; from lexali import corpus; "
        "corpus.write_lines(sys.argv[1], (f'other {i}' for i in range(3000)))"
    )
    mine = [f"mine {i}" for i in range(2000)]
    # the other writer starts and finishes while this one is half written;
    # this one finishes last, so its lines win, whole
    with corpus.replacing(path) as write:
        write("".join(line + "\n" for line in mine[:1000]))
        subprocess.run(
            [sys.executable, "-c", other, str(path)], env=env, check=True, timeout=60
        )
        assert path.read_text(encoding="utf-8").splitlines()[-1] == "other 2999"
        write("".join(line + "\n" for line in mine[1000:]))
    assert path.read_text(encoding="utf-8").splitlines() == mine
    assert sorted(p.name for p in tmp_path.iterdir()) == ["race.out"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_write_into_a_pipe_keeps_the_pipe(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        corpus.write_lines(fifo, ["a", "b"])
        assert os.read(reader, 64) == b"a\nb\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


@pytest.fixture
def no_rename(monkeypatch):
    """Make a rename fail, so that a wrong one cannot replace a real device."""

    def refuse(*args):
        raise AssertionError("a device node must not be renamed over")

    monkeypatch.setattr(os, "replace", refuse)


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_write_into_a_device_keeps_the_device(no_rename):
    corpus.write_lines(os.devnull, ["a"])
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_into_a_device_names_it(no_rename):
    # every write to /dev/full fails with ENOSPC, here when the file is closed
    with pytest.raises(LexaliError, match="^cannot write /dev/full: "):
        corpus.write_lines("/dev/full", ["a"])
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def test_write_through_symlink_keeps_the_link(tmp_path):
    (tmp_path / "target.txt").write_bytes(b"old line\n")
    (tmp_path / "link.txt").symlink_to("target.txt")
    corpus.write_lines(tmp_path / "link.txt", ["new line"])
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "target.txt").read_bytes() == b"new line\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


class TestVocab:
    SOURCES = [("a", "b", "a"), ("b", "c")]

    def test_counts(self):
        assert list(corpus.count_words(self.SOURCES).items()) == [
            ("a", 2), ("b", 2), ("c", 1),
        ]
        # source sentences, then target ones: the order bpe-learn counts in
        counted = corpus.count_words([*self.SOURCES, ("x",), ("c", "x", "y")])
        assert list(counted.items()) == [
            ("a", 2), ("b", 2), ("c", 2), ("x", 2), ("y", 1),
        ]

    def test_empty_corpus_rejected(self):
        with pytest.raises(LexaliError, match="from an empty corpus"):
            corpus.count_words([])

    def test_vocab_file_round_trip(self, tmp_path):
        vocab = {"low": 5, "er": 2, "aa": 2}
        corpus.write_vocab(vocab, tmp_path / "v.txt")
        # sorted by count desc, then token
        text = (tmp_path / "v.txt").read_text(encoding="utf-8")
        assert text == "low 5\naa 2\ner 2\n"
