"""tools/make_mini_corpus.py: the bundled mini corpus is what it generates."""

import subprocess
import sys
from importlib import resources
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_mini_corpus.py"


def test_regenerates_the_bundled_mini_corpus(tmp_path):
    done = subprocess.run(
        [sys.executable, str(_TOOL), str(tmp_path)], capture_output=True, check=False
    )
    assert (done.returncode, done.stderr) == (0, b"")
    data = resources.files("lexali") / "data"
    for name in ("mini.src", "mini.tgt"):
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name
