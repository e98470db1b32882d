"""The README's Python examples run as written.

Each ```python block runs in a fresh temporary directory that holds the
small input files the examples read, so an example that names a deleted
function, option or field fails here.
"""

import re
from pathlib import Path

import pytest

from renforge import ConceptForest

README = Path(__file__).resolve().parent.parent / "README.md"

# (the "## " heading above the block, the block's code), in README order.
EXAMPLES = [(heading.strip(), code) for heading, code in re.findall(
    r"^## ([^\n]*)\n(?:(?!^## ).)*?^```python\n(.*?)^```$",
    README.read_text(encoding="utf-8"), re.M | re.S)]


def test_examples_are_found():
    assert [heading for heading, _ in EXAMPLES] == ["Library in five lines", "File formats"]


@pytest.fixture
def example_dir(tmp_path, monkeypatch):
    forest = ConceptForest()
    forest.ingest_lines(["black cat drank milk\n", "black cat sat\n"])
    (tmp_path / "corpus.txt").write_text("black cat sat mat\nblack cat drank milk\ndrank milk\n",
                                         encoding="utf-8")
    (tmp_path / "events.tsv").write_text("0\tc0,c1,c2\n1\tc1,c2,c3\n", encoding="utf-8")
    (tmp_path / "forest.json").write_text(forest.to_json(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("heading, code", EXAMPLES, ids=[h for h, _ in EXAMPLES])
def test_example_runs(heading, code, example_dir):
    exec(compile(code, f"README.md ({heading})", "exec"), {"__name__": "__readme__"})


def test_five_line_unit_grows_and_settles(example_dir, capsys):
    # The README's claim: an intermediary grows, and the per-input excess
    # drops from 0.8 to under the 0.2 balance tolerance.
    code = dict(EXAMPLES)["Library in five lines"]
    exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
    created, initial, final = capsys.readouterr().out.split()
    assert int(created) >= 1
    assert float(initial) == 0.8
    assert float(final) < 0.2
