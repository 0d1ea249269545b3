"""Write the golden corpus: one file per CLI command, its exit code and exact stdout.

Each file starts with two header lines, `$ zsig <argv>` and `exit <code>`,
and the command's stdout follows byte for byte.  These files are the one
place where a command's output bytes are pinned.  tests/test_golden.py
runs every command through zsig.cli.main and compares; CI runs every
file's header line again through the installed `zsig` console script,
each scan also at `--parallelism 2`, and compares stdout and exit code.
The files record the output of the commit they were made at; a change
that alters one changes output and must say so line by line.  Run from
the repository root, with the tree whose output is to be recorded on the
path:

    PYTHONPATH=src python tests/golden/make.py
"""
from __future__ import annotations

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

_ORBITS = (
    ("x^3+x^2", ("1/2", "-5/3", "1/6", "3", "-3/4", "-1")),
    ("2*x^3+x^2", ("1/12", "1/2", "3/2")),
    ("6*x^3+3*x^2", ("-5/2",)),
    ("x^2", ("-2", "-1")),  # finite orbits: the fixed point 2, and -1, 0, -1, ...
)
_SURVEY = ("x^3+x^2", "2*x^3+x^2")
_BOUNDS = ("x^3+x^2", "2*x^3+x^2", "x^4+x^2", "x^2", "3*x^3+2*x^2", "-x^3+x^2", "x^60",
           "100*x^50+x^2", "7*x^5-3*x^3+2*x^2")

COMMANDS: tuple[tuple[str, ...], ...] = (
    *((cmd, f"--poly={poly}", f"--c={c}")
      for cmd in ("orbit", "zsigmondy") for poly, cs in _ORBITS for c in cs),
    ("zsigmondy", "--poly=x^3+x^2", "--c=1/2", "--bit-cap", "20"),
    *(("scan", f"--poly={poly}", "--num-bound", "20", "--den-bound", "6",
       "--horizon", str(horizon), "--format", fmt)
      for poly in _SURVEY for horizon in (8, 10) for fmt in ("csv", "json")),
    # every row capped at n = 11 or 12: the cap decided past the exact prefix
    ("scan", "--poly=x^3+x^2", "--num-bound", "20", "--den-bound", "6", "--horizon", "12",
     "--bit-cap", "200000", "--format", "csv"),
    # horizon 30 under the same cap: 153 of the 155 rows capped at n <= 13
    ("scan", "--poly=x^3+x^2", "--num-bound", "20", "--den-bound", "6", "--horizon", "30",
     "--bit-cap", "200000", "--format", "csv"),
    # rows whose den(c) primes turn deep at different entries: tails that
    # start late, where a handoff with a short deep dict would go wrong
    ("scan", "--poly=2*x^3+x^2", "--num-bound", "12", "--den-bound", "30", "--horizon", "9",
     "--bit-cap", "10000"),
    # horizon 30 at the default cap: rows capped at n = 11-16 and decided from
    # enclosures.  -x^3+x^2 and x^4+x^2 settle escaped tails by the whole-bit growth
    # bound; 2*x^3+x^2 and 3*x^3+2*x^2 hand rows off with a den(c) prime still
    # shallow, and on three rows of 3*x^3+2*x^2 the 3 turns deep inside the tail
    *(("scan", f"--poly={poly}", "--num-bound", "20", "--den-bound", "6", "--horizon", "30")
      for poly in ("x^3+x^2", "-x^3+x^2", "x^4+x^2", "3*x^3+2*x^2", "2*x^3+x^2")),
    # a cap of 10^60: tails climb the precision ladder past the 64-bit rung to 256 bits
    ("scan", "--poly=x^3+x^2", "--num-bound", "20", "--den-bound", "6", "--horizon", "100",
     "--bit-cap", "1" + "0" * 60),
    # long horizons: every row caps within bitlen(bit_cap) indices of its handoff, so the
    # window past the cap is never read; c = 1/2 of 2*x^3+x^2 walks the 2 on residues
    ("scan", "--poly=x^3+x^2", "--num-bound", "2", "--den-bound", "1", "--horizon", "1000000"),
    ("scan", "--poly=2*x^3+x^2", "--num-bound", "2", "--den-bound", "2", "--horizon", "3000"),
    # deep orbits: entries of 10^5-10^6 bits; the horizon-13 and -16 steps make
    # products past arith._SSA_BITS, and the den^d helper serves c = -5/3
    *(("zsigmondy", "--poly=x^3+x^2", f"--c={c}", "--horizon", str(horizon))
      for c, horizon in (("-5/3", 12), ("3", 12), ("-5/3", 13), ("1/2", 16))),
    ("orbit", "--poly=2*x^3+x^2", "--c=1/12", "--horizon", "12"),
    # 30 digit counts of up to 1.6 * 10^6 digits; the 14 past 4096 bits come from ln-enclosures
    ("orbit", "--poly=x^3+x^2", "--c=1/2", "--horizon", "16"),
    # bad input exits 2 with a message on stderr, never a traceback (exit 1)
    ("orbit", "--poly=x", "--c=1"),
    ("scan", "--poly=x^3+x^2", "--num-bound", "-1", "--den-bound", "2"),
    *(("bounds", f"--poly={poly}") for poly in _BOUNDS),
    ("bounds", "--poly=x^3+x^2", "--L", "1/3", "--N", "5"),
    ("normalize", "--poly", "x^3-3*x", "--u", "1"),
    ("verify",),
)


def file_name(argv: tuple[str, ...]) -> str:
    """A readable file name for argv; the header line keeps the exact argv."""
    words = (re.sub(r"[^A-Za-z0-9+=.-]", "", a.removeprefix("--").replace("/", "over"))
             for a in argv)
    return "_".join(words) + ".txt"


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    """(exit code, stdout) of `zsig argv`, run in this process; stderr is dropped."""
    from zsig.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue()


def render(argv: tuple[str, ...], rc: int, stdout: str) -> str:
    return f"$ zsig {shlex.join(argv)}\nexit {rc}\n{stdout}"


def main() -> int:
    names = [file_name(argv) for argv in COMMANDS]
    assert len(set(names)) == len(names), "two commands share a file name"
    for old in HERE.glob("*.txt"):
        old.unlink()
    for argv, name in zip(COMMANDS, names):
        (HERE / name).write_text(render(argv, *run(argv)), encoding="utf-8", newline="")
    print(f"wrote {len(names)} files to {HERE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
