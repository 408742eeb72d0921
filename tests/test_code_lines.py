"""``scripts/code_lines.py``: its counts, and the package's defaulted public parameters pinned.

A change that adds or removes a defaulted parameter of a public function or
method edits ``DEFAULTED`` here, so that every new knob is a deliberate,
reviewed edit.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

# defaulted parameters of public functions and methods, per module
DEFAULTED = {
    "__init__.py": 0,
    "algebra.py": 11,
    "angles.py": 2,
    "cli.py": 4,
    "errors.py": 1,
    "groups.py": 11,
    "m2.py": 4,
    "matrices.py": 3,
    "tower.py": 2,
    "verify.py": 1,
}


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_defaulted_public_parameters_are_pinned_per_module():
    script = _script()
    got = {
        path.name: script.defaulted_parameters(path.read_text())
        for path in sorted(script.PACKAGE.glob("*.py"))
    }
    assert got == DEFAULTED
    assert sum(got.values()) == 39


def test_counts_follow_their_definitions():
    script = _script()
    source = '''"""Module docstring."""

import os  # a comment


def public(a, b=1, *, c=2):
    """Docstring,
    two lines."""
    return a


def _private(x=1):
    return x


class Public:
    def __init__(self, y=0):
        pass

    def method(self, z=None):
        pass

    def _hidden(self, w=3):
        pass


class _Private:
    def method(self, v=1):
        pass
'''
    # code lines: import, def public, return a, def _private, return x,
    # class Public, def __init__, pass, def method, pass, def _hidden, pass,
    # class _Private, def method, pass
    assert script.code_lines(source) == 15
    # b, c, y and z: not _private, _hidden, or anything of _Private
    assert script.defaulted_parameters(source) == 4
