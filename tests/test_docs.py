"""The examples in README.md and PAPER.md run as doctests."""

import doctest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["README.md", "PAPER.md"])
def test_examples_run(name):
    result = doctest.testfile(str(ROOT / name), module_relative=False)
    assert (result.failed, result.attempted) == (0, 5)
