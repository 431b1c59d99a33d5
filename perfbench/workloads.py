"""Request lists of the three benchmark workloads.

Each workload turns a seed into a fixed list of CLI requests.  The seed
varies the parameter values only; the shape of the list (how many requests,
which periods, how many points or iterations each) is the same for every
seed, so runs with different seeds do the same amount of work.

Admissible radii, displacements and detuning windows are computed here from
the paper's closed forms rather than through the package, so the inputs do
not move when the program under test changes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("stability-scan", "twist-scan", "island-section")

#: one (n, k) per winding number k = 1..6; for k >= 2 the smallest n coprime
#: to k with a stable window (n = 9 shares a factor with k = 3, so 10), and
#: n = 5 for k = 1; periods 2n+2 run from 12 to 108
STABILITY_CASES = ((5, 1), (5, 2), (10, 3), (13, 4), (21, 5), (53, 6))

#: twist ladders: n drawn from this range; the ladder comparison with
#: twist_limit(n) stays well inside 1e-6 here
TWIST_N = tuple(range(3, 21))

#: seed counts of the island-section requests; seeds * iterations is fixed
SECTION_SEEDS = (8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class Request:
    """One CLI invocation: its argv (without ``--out``) and its item count."""

    argv: tuple[str, ...]
    items: int


def _f(x: float) -> str:
    return repr(float(x))


def delta_cap(n: int, k: int) -> float:
    """Largest displacement along the chord that keeps the table admissible."""
    if k == 1:
        return math.sin(math.pi / n)
    return math.cos(k * math.pi / n) * math.tan(math.pi / n)


def radius_cap(n: int, k: int, delta: float) -> float:
    """Largest admissible scatterer radius at displacement ``delta``."""
    disk = 1.0 - math.sqrt(delta * delta + math.cos(k * math.pi / n) ** 2)
    if k == 1:
        return disk
    return min(math.sin(2.0 * math.pi / n) * (delta_cap(n, k) - delta), disk)


def epsilon_star(n: int) -> float:
    """Right end of the tangent table's elliptic window, 4 / c1(n)."""
    c = math.pi / n
    cot = math.cos(c) / math.sin(c)
    c1 = 16.0 * n * (math.cos(c) - n * cot + n * math.cos(c) * cot) / (math.cos(c) - 1.0)
    return 4.0 / c1


def stability_requests(rng: random.Random, scale: float) -> list[Request]:
    """Trace scans: one request per (n, k), a delta list holding 0 and three
    small displacements, and an R range strictly inside (0, max radius)."""
    count = max(2, round(50 * scale))
    out = []
    for n, k in STABILITY_CASES:
        # beyond ~0.1 of the cap the n=53 orbit fails its closure check
        deltas = [0.0] + sorted(delta_cap(n, k) * rng.uniform(0.005, 0.1) for _ in range(3))
        cap = radius_cap(n, k, deltas[-1])
        lo, hi = cap * rng.uniform(0.02, 0.1), cap * rng.uniform(0.9, 0.98)
        argv = (
            "stability", "--n", str(n), "--k", str(k),
            "--delta", ",".join(_f(d) for d in deltas),
            "--R", f"{_f(lo)}:{_f(hi)}:{count}",
        )
        out.append(Request(argv, len(deltas) * count))
    return out


def twist_requests(rng: random.Random, scale: float) -> list[Request]:
    """Twist-coefficient scans: 16 values of n with one 8-point geometric
    detuning ladder at or below 0.05 * epsilon_star of the largest n."""
    out = []
    for _ in range(max(1, round(10 * scale))):
        ns = sorted(rng.sample(TWIST_N, 16))
        top = rng.uniform(0.4, 1.0) * 0.05 * epsilon_star(ns[-1])
        ladder = [top * 0.5 ** (3.0 * i / 7.0) for i in range(8)]
        argv = (
            "birkhoff", "--n", ",".join(map(str, ns)),
            "--eps", ",".join(_f(e) for e in ladder),
        )
        out.append(Request(argv, len(ns) * len(ladder)))
    return out


def section_requests(rng: random.Random, scale: float) -> list[Request]:
    """Island sections: n cycles through 3, 4, 5 and the seed count through
    8..256 with seeds * iterations held fixed."""
    total = max(SECTION_SEEDS[-1], round(16384 * scale))
    out = []
    for i, seeds in enumerate(SECTION_SEEDS):
        n = 3 + i % 3
        iterations = total // seeds
        argv = (
            "section", "--n", str(n),
            "--eps", _f(rng.uniform(0.2, 0.8) * epsilon_star(n)),
            "--radius", _f(rng.uniform(2e-5, 1e-4)),
            "--seeds", str(seeds), "--iterations", str(iterations),
            "--seed", str(rng.randrange(2**31)),
        )
        out.append(Request(argv, seeds * iterations))
    return out


_BUILDERS = {
    "stability-scan": stability_requests,
    "twist-scan": twist_requests,
    "island-section": section_requests,
}


def requests_for(workload: str, seed: int, scale: float = 1.0) -> list[Request]:
    """The fixed request list of ``workload`` for ``seed``.

    ``scale`` shrinks the points or iterations per request; the benchmark
    always runs at 1, the smoke test runs smaller.
    """
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), scale)
