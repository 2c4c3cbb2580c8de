"""The CLI's bytes: every command in ``golden/regenerate.py`` writes exactly
its golden file.  After a change that moves one on purpose, rewrite the
files with ``PYTHONPATH=src python tests/golden/regenerate.py`` and name
each moved file and its reason in CHANGES.md."""

import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest

from truncgauss import cli, moments

_spec = importlib.util.spec_from_file_location(
    "regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_command_has_its_own_file():
    assert len({golden.path(command) for command in golden.COMMANDS}) == len(golden.COMMANDS)


@pytest.mark.parametrize("command", golden.COMMANDS)
def test_output_matches_golden_file(command):
    assert golden.diff(command) == ""


def test_one_ulp_in_a_printed_moment_is_caught(monkeypatch):
    real = moments.conditional_moments

    def nudged(rho, spectrum):
        got = real(rho, spectrum)
        second = list(got.second)
        second[1] = math.nextafter(second[1], math.inf)
        return dataclasses.replace(got, second=tuple(second))

    command = "moments --lambda 1,2,3 --rho 5"
    assert golden.diff(command) == ""
    monkeypatch.setattr(moments, "conditional_moments", nudged)
    moved = golden.diff(command)
    changed = [line for line in moved.splitlines()[2:] if line[0] in "+-"]
    assert [line[:1] for line in changed] == ["-", "+"], moved
    assert changed[0].split(",")[3] != changed[1].split(",")[3]  # the second moment


def test_a_changed_exit_code_is_caught(monkeypatch):
    command = "moments --lambda 1,2,3 --rho 5"
    real = cli.cmd_moments
    monkeypatch.setattr(cli, "cmd_moments", lambda args: real(args) + 1)
    moved = golden.diff(command)
    assert [line for line in moved.splitlines()[2:] if line[0] in "+-"] == \
        ["-exit 0", "+exit 1"], moved
