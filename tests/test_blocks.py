"""``section``'s blocks: the same bytes at every block count, and a failed
block that leaves no process behind.

``blocks.in_blocks`` runs the first block of a request in this process and
each other in a forked child.  ``section`` looks it up, with
``usable_cpus``, as a library name of ``cli``, so the tests patch them
there.  A failing child ends the request with its traceback; a failing
parent kills and reaps its children.  Either way ``os.waitpid(-1,
os.WNOHANG)`` then finds no child.
"""

import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import annular_billiards
from annular_billiards import birkhoff, cli

TESTS = Path(__file__).resolve().parent
SRC = Path(annular_billiards.__file__).resolve().parent.parent

#: a request that splits into one block per seed once MIN_BLOCK is 1
SPLIT = ["section", "--n", "3", "--eps", "0.02", "--seeds", "4", "--iterations", "20", "--out", "-"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def three_blocks(monkeypatch):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "MIN_BLOCK", 1)


def child(code: str, tmp_path) -> subprocess.CompletedProcess:
    """``python -W error -c code`` on ``src/``, from ``tmp_path``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=60,
    )


def test_every_block_count_writes_the_same_bytes():
    # block_identity.py in a fresh interpreter, warnings as errors
    done = subprocess.run(
        [sys.executable, "-W", "error", str(TESTS / "block_identity.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stdout


def test_blocks_come_back_in_order_from_their_own_processes():
    results = cli.in_blocks(lambda block: (block.start, block.stop, os.getpid()), 10, 3)
    assert [result[:2] for result in results] == [(0, 3), (3, 6), (6, 10)]
    pids = [result[2] for result in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()


def open_pipes() -> set[tuple[int, int]]:
    """(descriptor, access mode) of every pipe end this process holds."""
    ends = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            if stat.S_ISFIFO(os.fstat(int(name)).st_mode):
                flags = Path(f"/proc/self/fdinfo/{name}").read_text().split("flags:")[1].split()[0]
                ends.add((int(name), int(flags, 8) & os.O_ACCMODE))
        except OSError:  # the listing's own descriptor, closed by now
            pass
    return ends


@pytest.mark.skipif(not os.path.isdir("/proc/self/fdinfo"), reason="lists open files through /proc")
def test_a_child_holds_only_its_own_write_end():
    # this process holds the read ends of its three children's pipes while
    # its own block runs; each child, the write end of its own alone
    before = open_pipes()
    results = cli.in_blocks(lambda block: sorted(open_pipes() - before), 12, 4)
    assert [[mode for _, mode in ends] for ends in results] == [[os.O_RDONLY] * 3] + [[os.O_WRONLY]] * 3
    assert_no_child_left()


def test_a_failed_child_raises_its_traceback(monkeypatch, three_blocks):
    sampler = cli.island_sampler

    def refused(*args):
        first = args[6]
        if first:
            raise ValueError("this block is refused")
        return sampler(*args)

    monkeypatch.setattr(cli, "island_sampler", refused)
    with pytest.raises(RuntimeError) as info:
        cli.main(SPLIT)
    message = str(info.value)
    assert "the forked block of items 1 to 1 failed" in message
    assert "Traceback (most recent call last)" in message
    assert message.rstrip().endswith("ValueError: this block is refused")
    assert_no_child_left()


def test_a_failed_parent_kills_and_reaps_its_children(monkeypatch, three_blocks):
    # the children would sleep for a minute; killed, they end at once
    def refused(*args):
        first = args[6]
        if first:
            time.sleep(60)
        raise ValueError("this process's block is refused")

    monkeypatch.setattr(cli, "island_sampler", refused)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="this process's block is refused"):
        cli.main(SPLIT)
    assert time.monotonic() - t0 < 30
    assert_no_child_left()


def test_a_parent_refusal_keeps_its_message_and_status(monkeypatch, three_blocks, capsys):
    # an n that the map refuses: the first block's refusal, as one block gives it
    assert cli.main(["section", "--n", "2", "--eps", "0.02", "--seeds", "4", "--iterations", "20"]) == 2
    assert capsys.readouterr().err == "error: InvalidTableError: need n >= 3, got 2\n"
    assert_no_child_left()


def test_a_failed_child_ends_the_process_with_status_1(tmp_path):
    launcher = (
        "import sys\n"
        "from annular_billiards import cli\n"
        "sampler = cli.island_sampler\n"
        "def refused(*args):\n"
        "    if args[6]:\n"
        "        raise ValueError('this block is refused')\n"
        "    return sampler(*args)\n"
        "cli.island_sampler, cli.usable_cpus, cli.MIN_BLOCK = refused, lambda: 2, 1\n"
        f"sys.argv[1:] = {SPLIT!r}\n"
        "cli.entry()\n"
    )
    done = child(launcher, tmp_path)
    assert (done.returncode, done.stdout) == (1, "")
    assert "in refused\n" in done.stderr
    assert done.stderr.rstrip().endswith("ValueError: this block is refused")


def test_a_child_runs_no_atexit_callback_and_flushes_no_stdio(tmp_path):
    # text left in this process's stdout buffer is written once, by this
    # process; an atexit callback would leave a file behind
    launcher = (
        "import atexit, os, pathlib, sys\n"
        "from annular_billiards import cli\n"
        "atexit.register(lambda: pathlib.Path(f'exit-{os.getpid()}').write_text('ran'))\n"
        "sys.stdout.write('buffered\\n')\n"
        "print(cli.in_blocks(lambda block: block.start, 3, 3), os.getpid())\n"
    )
    done = child(launcher, tmp_path)
    buffered, line = done.stdout.splitlines()
    assert (done.returncode, buffered, done.stderr) == (0, "buffered", "")
    results, pid = line.rsplit(" ", 1)
    assert results == "[0, 1, 2]"
    assert [path.name for path in tmp_path.iterdir()] == [f"exit-{pid}"]


def test_a_request_forks_only_with_two_blocks_of_work(monkeypatch):
    # MIN_BLOCK seed-iterations a block: the benchmark contract's 8 x 10
    # section stays in one process on any machine
    monkeypatch.setattr(cli, "usable_cpus", lambda: 64)
    forks = []
    monkeypatch.setattr(cli, "in_blocks", lambda work, count, blocks: forks.append(blocks) or [work(range(count))])
    for seeds, iterations in [(8, 10), (8, 2 * cli.MIN_BLOCK // 8 - 1), (8, 2 * cli.MIN_BLOCK // 8), (2, cli.MIN_BLOCK)]:
        argv = ["section", "--n", "3", "--eps", "0.02", "--seeds", str(seeds), "--iterations", str(iterations)]
        assert cli.main(argv + ["--out", os.devnull]) == 0
    assert forks == [1, 1, 2, 2]


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert cli.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert cli.usable_cpus() == (os.cpu_count() or 1)
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli.usable_cpus() == 1


def test_a_block_of_the_ring_is_its_seeds_alone():
    # seeds 2..5 of an 8-seed ring: their iterates, in order, and their
    # report, with an escape numbered in the whole ring
    args = (3, 0.02, 0.1, 50)
    singles = [birkhoff.island_sampler(*args, seeds=i + 1, seed=0, first=i) for i in range(8)]
    report, cloud = birkhoff.island_sampler(*args, seeds=6, seed=0, first=2)
    assert cloud == [row for _, rows in singles[2:6] for row in rows]
    assert report.max_excursion == max(single.max_excursion for single, _ in singles[2:6])
    escapes = [single for single, _ in singles[2:6] if single.escaped]
    assert escapes and report[1:] == escapes[0][1:]
    assert birkhoff.island_sampler(*args, seeds=8, seed=0)[1] == [row for _, rows in singles for row in rows]
