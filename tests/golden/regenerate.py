"""Golden CLI outputs: what each command in ``COMMANDS`` writes, byte for byte.

Each command runs in process through ``truncgauss.cli.main``.  Its golden
file holds the command, its exit code, its stdout and its stderr.  An
output of more than ``MAX_LINES`` lines is kept as its sha256 and its first
``HEAD_LINES`` lines.  ``tests/test_golden.py`` compares every file.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite every file
    PYTHONPATH=src python tests/golden/regenerate.py --check  # diff each moved file

``--check`` writes nothing; it prints a unified diff per command whose
output moved and exits 1 if any did.  A change that moves a golden file
names the file and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import re
import shlex
import sys
from pathlib import Path

from truncgauss import cli

HERE = Path(__file__).resolve().parent
MAX_LINES = 200
HEAD_LINES = 20

COMMANDS = (
    'integral --v 2 --lambda 1,1 --rho 2 --index ""',
    "integral --lambda 1 --rho-range 0.5:50:40:log --index 1:2",
    "integral --lambda 1,2 --rho 4 --index 1:1 --mc --samples 100000 --seed 7",
    "moments --lambda 1,2,3 --rho 5",
    "moments --lambda 1,1.5,2,3 --rho-range 1:30:8:log",
    "moments --lambda 1,2 --rho 5 --format json",
    "moments --lambda 1,2,3,4,5 --rho 7",
    "moments --lambda 1,1.5,2,2.5,3,3.5,4,4.5 --rho 9",
    "moments --lambda 1,2,3,4,5,6 --rho-range 2:200:6:log",
    "moments --lambda 1,2,3,4,5 --rho 1000",
    "eta --lambda 1,2 --rho 5 --order 4",
    "figure delta-grid",
    "figure delta-grid --quick",
    "figure gamma-curves --quick",
    "figure gamma-convergence --quick",
    "cp-table",
    "verify all",
    "verify all --quick",
    "verify xi --qmax 12",
    "verify structural --lambda 1,2 --rho 1e5",
    "verify structural --rho 1e200",
    "verify structural --lambda 1e-300,1 --rho 1",
    "verify inequalities",
    "verify inequalities --lambda 1e-300,1",
    "verify inequalities --lambda 1e300,1",
    "verify inequalities --lambda 1e-200,1e-200",
    "verify inequalities --lambda 2.215,2.183,0.212,6.306",
    "verify asymptotic",
    "verify asymptotic --lambda 0.3,0.4,0.5",
)


def path(command: str) -> Path:
    """The golden file of ``command``: its words and values joined by ``_``."""
    stem = re.sub(r"[^A-Za-z0-9.+-]+", "_", command.replace("--", " ")).strip("_")
    return HERE / f"{stem}.txt"


def _stream(name: str, text: str) -> str:
    """One output as kept: whole, or as its sha256 and first lines if long."""
    lines = text.splitlines(keepends=True)
    if len(lines) <= MAX_LINES:
        return f"--- {name}: {len(text)} characters\n{text}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return (f"--- {name}: {len(text)} characters in {len(lines)} lines, sha256 {digest};"
            f" the first {HEAD_LINES} lines\n" + "".join(lines[:HEAD_LINES]))


def render(command: str) -> str:
    """Run ``command`` through ``cli.main`` and render what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(command))
        except SystemExit as exc:  # a usage error from argparse
            code = exc.code
    return (f"$ truncgauss {command}\nexit {code}\n"
            + _stream("stdout", out.getvalue()) + _stream("stderr", err.getvalue()))


def diff(command: str) -> str:
    """A unified diff from the golden file of ``command`` to its output now;
    empty when they match."""
    golden = path(command)
    want = golden.read_text() if golden.exists() else ""
    got = render(command)
    return "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        f"golden/{golden.name}", "now"))


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        moved = [text for text in map(diff, COMMANDS) if text]
        sys.stdout.write("".join(moved))
        return 1 if moved else 0
    if argv:
        sys.exit(f"usage: {Path(__file__).name} [--check]")
    for command in COMMANDS:
        path(command).write_text(render(command))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
