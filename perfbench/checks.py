"""Output checks and health counts for one CLI output file.

Every check returns a list of problems (empty when the output is correct)
and a dict of health counts read from outside the program: skipped rows
by exception class and the largest closed-form versus monodromy trace gap.
"""

from __future__ import annotations

import math
from collections import Counter

#: relative agreement required between the closed-form and monodromy traces
TRACE_TOL = 1e-8

#: relative agreement required between the ladder extrapolation A_tilde and
#: twist_limit(n); the workload's ladders reach about 3.5e-7
TWIST_TOL = 1e-6

#: bound on max_excursion / radius for a bounded island cloud; the workload's
#: detunings reach about 20
EXCURSION_BOUND = 100.0

#: twist points per request re-derived with the mpmath audit
CROSS_CHECK_SAMPLE = 2


def parse_csv(text: str) -> tuple[dict, list[str], list[dict]]:
    """Split a CLI CSV into its summary, header and rows.

    ``skip_reason`` messages may hold commas, so each row is split into at
    most as many fields as the header has.
    """
    summary: dict[str, str] = {}
    header: list[str] = []
    rows: list[dict] = []
    for line in text.splitlines():
        if line.startswith("# summary "):
            key, _, value = line[len("# summary "):].partition(": ")
            summary[key] = value
        elif line.startswith("#"):
            continue
        elif not header:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(",", len(header) - 1))))
    return summary, header, rows


def argv_values(argv, flag: str) -> list[str]:
    return argv[argv.index(flag) + 1].split(",")


def _skips(rows: list[dict]) -> Counter:
    return Counter(r["skip_reason"].split(":")[0] for r in rows if r.get("skip_reason"))


def check_stability(argv, text: str, api) -> tuple[list[str], dict]:
    """Row count equals the grid, traces agree, delta = 0 rows are parabolic."""
    summary, _, rows = parse_csv(text)
    problems = []
    deltas = argv_values(argv, "--delta")
    count = int(argv_values(argv, "--R")[0].split(":")[2])
    if len(rows) != len(deltas) * count:
        problems.append(f"{len(rows)} rows for a grid of {len(deltas) * count}")
    worst = 0.0
    done = 0
    for r in rows:
        if r["skip_reason"]:
            continue
        done += 1
        closed, numeric = float(r["trace_closed"]), float(r["trace_numeric"])
        gap = abs(closed - numeric)
        worst = max(worst, gap)
        if not gap <= TRACE_TOL * max(1.0, abs(closed)):
            problems.append(f"trace gap {gap:.3g} at R={r['R']} delta={r['delta']}")
        if float(r["delta"]) == 0.0 and r["classification"] != "parabolic":
            problems.append(f"delta=0 row classified {r['classification']} at R={r['R']}")
    if rows and not done:
        problems.append("every row skipped")
    if summary.get("points") != str(len(rows)):
        problems.append(f"summary points {summary.get('points')} != {len(rows)} rows")
    return problems, {"rows": len(rows), "skips": _skips(rows), "trace_abs_diff_max": worst}


def check_twist(argv, text: str, api) -> tuple[list[str], dict]:
    """Signs of A match the leading order, ladders extrapolate to
    twist_limit(n), and a sample of points passes the mpmath audit."""
    summary, _, rows = parse_csv(text)
    problems = []
    ns = [int(v) for v in argv_values(argv, "--n")]
    eps = [float(v) for v in argv_values(argv, "--eps")]
    if len(rows) != len(ns) * len(eps):
        problems.append(f"{len(rows)} rows for a grid of {len(ns) * len(eps)}")
    done = [r for r in rows if not r["skip_reason"]]
    if rows and not done:
        problems.append("every row skipped")
    for r in done:
        a_num, a_lead = float(r["A_numeric"]), float(r["A_closed_leading"])
        if not math.copysign(1.0, a_num) == math.copysign(1.0, a_lead) or a_num == 0.0:
            problems.append(f"A_numeric {a_num!r} against leading order {a_lead!r} at n={r['n']}")
        limit = api.birkhoff.twist_limit(int(r["n"]))
        a_tilde = float(r["A_tilde"])
        if not abs(a_tilde - limit) <= TWIST_TOL * abs(limit):
            problems.append(f"A_tilde {a_tilde!r} against twist_limit {limit!r} at n={r['n']}")
    # deterministic sample: evenly spaced rows, audited outside any timing
    for r in done[:: max(1, len(done) // CROSS_CHECK_SAMPLE)][:CROSS_CHECK_SAMPLE]:
        try:
            api.birkhoff.taylor_jet(api.birkhoff.ReducedMap(int(r["n"]), float(r["eps"])), cross_check=True)
        except api.errors.BilliardError as exc:
            problems.append(f"audit failed at n={r['n']} eps={r['eps']}: {exc}")
    if summary.get("points") != str(len(rows)):
        problems.append(f"summary points {summary.get('points')} != {len(rows)} rows")
    return problems, {"rows": len(rows), "skips": _skips(rows), "trace_abs_diff_max": 0.0}


def check_section(argv, text: str, api) -> tuple[list[str], dict]:
    """No escape, a bounded excursion, seeds * iterations cloud rows, each
    within the reported excursion of the fixed point."""
    summary, header, rows = parse_csv(text)
    problems = []
    n = int(argv_values(argv, "--n")[0])
    eps = float(argv_values(argv, "--eps")[0])
    radius = float(argv_values(argv, "--radius")[0])
    expected = int(argv_values(argv, "--seeds")[0]) * int(argv_values(argv, "--iterations")[0])
    if summary.get("escaped") != "False":
        problems.append(f"escaped = {summary.get('escaped')}")
    excursion = float(summary.get("max_excursion", "nan"))
    if not 0.0 < excursion <= EXCURSION_BOUND * radius:
        problems.append(f"max_excursion / radius = {excursion / radius:.3g}")
    if header != ["s", "r"] or len(rows) != expected:
        problems.append(f"{len(rows)} cloud rows, expected {expected}")
    s0 = -math.pi + math.pi / n + eps * (1.0 - n)
    r0 = math.cos(math.pi / n + eps)
    far = max((math.hypot(float(r["s"]) - s0, float(r["r"]) - r0) for r in rows), default=0.0)
    if not far <= excursion * (1.0 + 1e-9):
        problems.append(f"cloud reaches {far!r} beyond max_excursion {excursion!r}")
    return problems, {"rows": 0, "skips": Counter(), "trace_abs_diff_max": 0.0}


CHECKS = {
    "stability-scan": check_stability,
    "twist-scan": check_twist,
    "island-section": check_section,
}
