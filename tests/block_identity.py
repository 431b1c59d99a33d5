"""``section`` writes the same bytes at every block count.

``section`` iterates and renders its seed ring in one block per usable CPU,
the first in its own process and each other in a forked child.  This script
forces 1, 2, 3 and 5 blocks by replacing ``usable_cpus``, the function that
reads the CPU count, where ``cli`` looks it up, and lowers ``cli.MIN_BLOCK``
to one seed-iteration so that small requests split too.  It runs each
request below through ``cli.main`` in CSV and JSON, and checks that stdout,
stderr and status equal the one-block run's, which is the sampler's whole
ring in this process, and that the request forked one child per block after
the first.

Run it in a fresh interpreter, with warnings as errors, under any Python the
package supports; it needs the standard library alone:

    PYTHONPATH=src python -W error tests/block_identity.py

``tests/test_blocks.py`` runs it under pytest.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from annular_billiards import cli  # noqa: E402
from workloads import requests_for  # noqa: E402

#: the block counts forced on every request
BLOCKS = (1, 2, 3, 5)

SECTION = ["section", "--n", "3", "--eps", "0.02"]

#: the island-section requests of seed 1, then the edge cases: an escape at
#: seed 0, a first escape at seed 9 of 16 (past the first block at 2, 3 and 5
#: blocks), every seed escaped (an empty table), radius 0, one seed, and
#: fewer seeds than blocks
ARGVS = [list(request.argv) for request in requests_for("island-section", 1)] + [
    SECTION + ["--radius", "0.1", "--iterations", "50"],
    SECTION + ["--radius", "0.05", "--seeds", "16", "--iterations", "1024", "--seed", "5"],
    SECTION + ["--radius", "2.0", "--seeds", "3", "--seed", "5"],
    SECTION + ["--radius", "0", "--seeds", "4", "--iterations", "20"],
    SECTION + ["--seeds", "1", "--iterations", "30"],
    SECTION + ["--seeds", "2", "--iterations", "30", "--seed", "9"],
]


def run(argv: list[str], blocks: int) -> tuple[bytes, str, int, int]:
    """stdout bytes, stderr text, status and the number of forks of
    ``cli.main(argv)`` with ``blocks`` usable CPUs."""
    forks = []
    saved = cli.usable_cpus, cli.MIN_BLOCK, os.fork

    def fork():
        forks.append(None)
        return saved[2]()

    cli.usable_cpus, cli.MIN_BLOCK, os.fork = (lambda: blocks), 1, fork
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv + ["--out", "-"])
    finally:
        cli.usable_cpus, cli.MIN_BLOCK, os.fork = saved
    return out.getvalue().encode(), err.getvalue(), status, len(forks)


def mismatches() -> list[str]:
    """Every (request, format, block count) whose output or fork count is
    not the expected one, as text; empty when all hold."""
    found = []
    for argv in ARGVS:
        seeds = int(argv[argv.index("--seeds") + 1]) if "--seeds" in argv else 8
        for fmt in ("csv", "json"):
            request = argv + ["--format", fmt]
            *expected, _ = run(request, 1)
            for blocks in BLOCKS[1:]:
                *got, forks = run(request, blocks)
                if got != expected:
                    found.append(f"{blocks} blocks: {' '.join(request)}: output differs")
                if forks != min(blocks, seeds) - 1:
                    found.append(f"{blocks} blocks: {' '.join(request)}: {forks} forks")
    return found


if __name__ == "__main__":
    problems = mismatches()
    print("\n".join(problems) or f"{len(ARGVS)} requests x 2 formats: the same bytes at {BLOCKS} blocks")
    sys.exit(1 if problems else 0)
