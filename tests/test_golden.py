"""Golden corpus: each CLI command in tests/golden prints the bytes recorded there.

The files were written by tests/golden/make.py; a change that alters one
changes output.  Regenerating a file to make this test pass hides that.
"""
import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_make", GOLDEN / "make.py")
make = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make)


def test_corpus_has_one_file_per_command():
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(map(make.file_name,
                                                                      make.COMMANDS))


@pytest.mark.parametrize("argv", make.COMMANDS, ids=make.file_name)
def test_command_prints_its_golden_bytes(argv):
    expected = (GOLDEN / make.file_name(argv)).read_bytes().decode("utf-8")
    assert make.render(argv, *make.run(argv)) == expected
