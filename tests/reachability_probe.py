"""Run a fixed set of command lines through ``annular_billiards.cli.main``
and print, as JSON, ``[module file, first line, name]`` of every package
function that one of them entered.

The set covers every subcommand and format, the console-script lines of
CI and each refusal route: usage errors, a refused single result, a
refused row and an output that cannot be written.  Each request writes to
an in-memory stream or fails to write, so the probe prints only its JSON.  ``tests/test_library_surface.py`` runs it, and
compares the package's functions that none of these requests entered with
its allow-list.

Run it in a fresh interpreter, ``python tests/reachability_probe.py``.  In
a process that has already warmed a cache or made a lazy import, a
function would look unreached, or reached, by what ran before.  It needs
the standard library alone, as every subcommand does.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: an integer that parses but that no float holds
HUGE = "1" + "0" * 400

ARGVS = [
    # the console-script lines of CI
    ["--version"],
    ["birkhoff", "--n", "3", "--eps", "0.001", "--out", "-"],
    ["birkhoff", "--n", "3,4", "--eps", "1e-3:4e-3:4", "--out", "-"],
    ["birkhoff", "--n", "2,3", "--eps", "0.001,2.9", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--iterations", "5", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--iterations", "5", "--format", "json", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--radius", "0.1", "--iterations", "50", "--out", "-"],
    ["stability", "--n", "5", "--R", "0.1", "--out", "-"],
    ["stability", "--n", "4", "--k", "1", "--R", "0.003", "--delta", "0.5", "--out", "-"],
    ["stability", "--n", "53", "--k", "6", "--delta", "0,0.001", "--R", "1e-4", "--out", "-"],
    ["stability", "--n", "5,7", "--k", "1,2", "--delta", "0.01", "--R", "0.02", "--out", "-"],
    ["orbit", "--n", "5", "--k", "2", "--format", "svg", "--out", "-"],
    ["orbit", "--n", "3", "--eps", "0.01", "--format", "json", "--out", "-"],
    ["region", "--n", "5", "--count", "5", "--out", "-"],
    ["region", "--n", "5", "--count", "3", "--out", "-"],
    ["lemma", "--x", "1.5,2", "--out", "-"],
    ["stability", "--n", HUGE, "--out", "-"],
    ["stability", "--n", "5", "--R", "0.1:0.1:3", "--out", "-"],
    ["birkhoff", "--n", "3", "--eps", "1e-400", "--out", "-"],
    ["region", "--n", HUGE[:301], "--out", "-"],
    # the other formats and defaults of each subcommand, and help
    ["-h"],
    ["stability", "-h"],
    ["stability", "--n", "5", "--k", "2", "--delta", "0,0.01", "--R", "0.01:0.05:3", "--format", "json", "--out", "-"],
    ["stability", "--n", "7", "--k", "3", "--out", "-"],
    ["region", "--n", "5", "--count", "3", "--format", "json", "--out", "-"],
    ["region", "--n", "5", "--count", "4", "--format", "svg", "--out", "-"],
    ["birkhoff", "--n", "3,4", "--eps", "0.001,0.002", "--format", "json", "--out", "-"],
    ["orbit", "--n", "5", "--k", "2", "--R", "0.05", "--delta", "0.01", "--out", "-"],
    ["orbit", "--n", "5", "--format", "json", "--out", "-"],
    ["orbit", "--n", "3", "--eps", "0.01", "--out", "-"],
    ["orbit", "--n", "3", "--eps", "0.01", "--format", "svg", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--iterations", "5", "--seeds", "2", "--seed", "7", "--out", "-"],
    ["lemma", "--format", "json", "--out", "-"],
    # refused results: a row, a radius cap and a single result
    ["stability", "--n", "5", "--k", "2", "--R", "0.5,0.01", "--out", "-"],
    ["stability", "--n", "6", "--k", "2", "--out", "-"],
    ["orbit", "--n", "5", "--eps", "0.3", "--out", "-"],
    # an output that cannot be written: a path under this file
    ["lemma", "--x", "2", "--out", str(Path(__file__).resolve() / "x.csv")],
    # usage errors, one for each check of a flag value or of a request
    [],
    ["stability", "--n", "2000000", "--out", "-"],
    ["stability", "--n", "5", "--R", "0.1:0.2", "--out", "-"],
    ["stability", "--n", "5", "--R", "0.1:0.2:0", "--out", "-"],
    ["stability", "--n", "5", "--R", "0.1:0.2:2000000", "--out", "-"],
    ["stability", "--n", "5", "--R", "0.1:inf:3", "--out", "-"],
    ["stability", "--n", "5", "--R", "nan", "--out", "-"],
    ["stability", "--n", "5", "--R", "x", "--out", "-"],
    ["stability", "--n", "1:4:3", "--out", "-"],
    ["stability", "--n", "5", "--eps", "0.1", "--out", "-"],
    ["stability", "--out", "-"],
    ["birkhoff", "--n", "3,3", "--eps", "0.001", "--out", "-"],
    ["region", "--n", "5", "--count", "x", "--out", "-"],
    ["region", "--n", "5", "--count", "0", "--out", "-"],
    ["region", "--n", "5", "--count", "2000000", "--out", "-"],
    ["orbit", "--n", "5,7", "--out", "-"],
    ["orbit", "--n", "3", "--eps", "0.01", "--k", "2", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--radius", "x", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--radius", "-1", "--out", "-"],
    ["section", "--n", "3", "--eps", "0.02", "--seeds", "2", "--iterations", "1000000", "--out", "-"],
]


def ran_functions(argvs: list[list[str]]) -> list[tuple[str, int, str]]:
    """``(module file, first line, name)`` of each package function that
    ``cli.main`` entered over ``argvs``, the package's import included."""
    sys.path.insert(0, str(SRC))
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        from annular_billiards import cli

        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main(argv)
                except SystemExit:
                    pass
    finally:
        sys.setprofile(None)
    package = SRC / "annular_billiards"
    return sorted({
        (path.name, code.co_firstlineno, code.co_name)
        for code in codes
        if (path := Path(code.co_filename).resolve()).parent == package
    })


if __name__ == "__main__":
    json.dump(ran_functions(ARGVS), sys.stdout)
