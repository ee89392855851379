"""The size counter ``tools/src_size.py``: every line of every ``src/``
module is code, prose or blank, and the public names are those
``test_public_api.py`` lists."""

import importlib.util
from pathlib import Path

import pytest

from test_public_api import PUBLIC_NAMES

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mahler").glob("*.py"))


def _src_size():
    spec = importlib.util.spec_from_file_location("src_size", ROOT / "tools" / "src_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


src_size = _src_size()

SAMPLE = '''"""Module docstring,

on three lines."""

import os  # a comment after code

# a comment line
def f(x):
    """One-line docstring."""
    s = """a string

that is code"""
    return (x +  # trailing
            # a comment inside brackets
            1)
'''


def test_sample_split():
    # code: 5, 8, 10-13, 15; prose: 1-3, 7, 9, 14; blank: 4, 6
    assert src_size.count_lines(SAMPLE) == (7, 6, 2)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lines_add_up(path):
    text = path.read_text()
    assert sum(src_size.count_lines(text)) == len(text.splitlines())


def test_public_names_as_the_api_test_counts_them():
    assert src_size.public_names() == PUBLIC_NAMES
