"""Independent items in contiguous blocks, one per usable CPU.

``in_blocks`` runs a job's first block in the calling process and each other
block in a forked child, which sends its result back through a pipe.  The
command line loads this module only for ``section``, whose seeds it splits.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Callable


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where there is no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_blocks(work: Callable[[range], object], count: int, blocks: int) -> list:
    """``work`` over ``blocks`` contiguous blocks of ``range(count)``, the
    results in block order.

    The first block runs in this process.  Each other block runs in an
    ``os.fork`` child, which holds only the write end of its own pipe,
    sends its result back through it with ``marshal`` (so a result is made
    of tuples, lists, strings and numbers) and ends with ``os._exit``: it
    runs no ``atexit`` callback and flushes no inherited stdio.  A block
    that raises in a child raises ``RuntimeError`` here, with the child's
    traceback.  If this process fails first, in its own block or while it
    waits, it kills and reaps every child still running, so that no child
    outlives the call.
    """
    cuts = [count * i // blocks for i in range(blocks + 1)]
    forked = list(map(range, cuts[1:-1], cuts[2:]))
    children = []  # (pid, the read end of its pipe), in block order
    try:
        for block in forked:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                try:
                    os.close(read)
                    for _, pipe in children:
                        pipe.close()
                    try:
                        message = marshal.dumps((True, work(block)))
                    except BaseException:
                        import traceback

                        message = marshal.dumps((False, traceback.format_exc()))
                    with open(write, "wb") as pipe:
                        pipe.write(message)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [work(range(cuts[0], cuts[1]))]
        for block in forked:
            pid, pipe = children[0]
            with pipe:
                message = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            done, value = marshal.loads(message) if message else (False, f"no result, wait status {status}")
            if not done:
                raise RuntimeError(f"the forked block of items {block.start} to {block.stop - 1} failed:\n{value}")
            results.append(value)
    except BaseException:
        if children:
            from signal import SIGKILL  # imported here alone: it costs a start ~1 ms

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        raise
    return results
