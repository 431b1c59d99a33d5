"""Acceptance suite: one test per criterion, each printing a pass line.

Run standalone for a human-readable report:

    python tests/test_acceptance.py

or under pytest (add -s to see the per-criterion lines):

    pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from annular_billiards.birkhoff import (
    ReducedMap,
    birkhoff_A,
    fd_taylor_jet,
    island_sampler,
    rotation_number_leading,
    taylor_jet,
    twist_limit,
)
from annular_billiards.geometry import (
    TableParams,
    max_radius,
)
from annular_billiards.linear_stability import (
    Classification,
    bifurcation_radius,
    classify,
    delta_star,
    epsilon_star,
    lemma_f,
    min_period_for_k,
    monodromy,
    trace_b_coefficient,
    trace_closed_form,
)
from annular_billiards.orbits import (
    PhasePoint,
    Wall,
    build_type_a,
    build_type_b,
    generic_step,
    reflection,
    verify_closure,
    wrap_pi,
)

GRID_PAIRS = [(n, 1) for n in range(3, 11)] + [(5, 2), (7, 2), (7, 3), (9, 2), (9, 4)]
GRID_DELTAS = [0.0, 0.01, 0.05]
GRID_FRACTIONS = [0.2, 0.4, 0.6, 0.8, 0.95]


def _report(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS - {text}")


def grid_tables():
    for n, k in GRID_PAIRS:
        for delta in GRID_DELTAS:
            try:
                cap = max_radius(n, k, delta)
            except Exception:
                continue
            for frac in GRID_FRACTIONS:
                yield n, k, frac * cap, delta


def richardson(values):
    level = list(values)
    order = 1
    while len(level) > 1:
        w = 2.0**order
        level = [(w * level[i + 1] - level[i]) / (w - 1.0) for i in range(len(level) - 1)]
        order += 1
    return level[0]


def test_criterion_01_closed_form_trace_oracle():
    worst = 0.0
    count = 0
    for n, k, R, delta in grid_tables():
        orbit = build_type_a(TableParams.type_a(n, k, R, delta))
        closed = trace_closed_form(n, k, R, delta)
        numeric = float(np.trace(monodromy(orbit)))
        worst = max(worst, abs(closed - numeric))
        count += 1
        assert abs(closed - numeric) < 1e-8, (n, k, R, delta)
    _report(1, f"closed-form vs monodromy trace: max diff {worst:.2e} over {count} tables")


def test_criterion_02_parabolic_at_zero_displacement():
    worst = 0.0
    count = 0
    for n, k, R, delta in grid_tables():
        if delta != 0.0:
            continue
        orbit = build_type_a(TableParams.type_a(n, k, R, delta))
        numeric = float(np.trace(monodromy(orbit)))
        worst = max(worst, abs(numeric - 2.0))
        count += 1
        assert abs(numeric - 2.0) < 1e-10, (n, k, R)
    _report(2, f"symmetric tables parabolic: max |trace - 2| = {worst:.2e} over {count} tables")


def test_criterion_03_saddle_center_locus():
    worst = 0.0
    cases = [(5, 1, 0.05), (6, 1, 0.03), (7, 2, 0.01), (9, 2, 0.01)]
    for n, k, delta in cases:
        rb = bifurcation_radius(n, k, delta)
        assert rb < max_radius(n, k, delta), (n, k, delta)
        tr = trace_closed_form(n, k, rb, delta)
        worst = max(worst, abs(tr - 2.0))
        assert abs(tr - 2.0) < 1e-10
        below = classify(trace_closed_form(n, k, rb * 0.999, delta))
        above = classify(trace_closed_form(n, k, rb * 1.001, delta))
        assert below is Classification.HYPERBOLIC
        assert above is Classification.ELLIPTIC
    _report(3, f"trace = 2 at the bifurcation radius (max dev {worst:.2e}), "
               "hyperbolic -> elliptic across it")


def test_criterion_04_min_period_table():
    want = {2: 5, 3: 9, 4: 13, 5: 21, 6: 53}
    got = {k: min_period_for_k(k) for k in want}
    assert got == want
    assert min_period_for_k(7) is None
    # justification: the bound function stays below 2*pi, so no n admits k >= 7
    xs = np.geomspace(1.01, 1e6, 2000)
    assert all(lemma_f(x) < 2 * math.pi for x in xs)
    _report(4, f"minimal periods {got}, none for k = 7 (bound < 2*pi on grid)")


def test_criterion_05_window_crossings():
    d5 = delta_star(5)
    d20 = delta_star(20)
    assert d5 == pytest.approx(0.11004, abs=1e-4)
    assert d20 == pytest.approx(0.00740, abs=1e-4)
    _report(5, f"window crossings delta*(5) = {d5:.6f}, delta*(20) = {d20:.6f}")


def test_criterion_06_tangent_trace_coefficient():
    worst = 0.0
    for n in (3, 4, 5, 10):
        base = min(1e-3, epsilon_star(n) / 20.0)
        vals = []
        for eps in (base, base / 2, base / 4):
            orbit = build_type_b(n, eps)
            tr = float(np.trace(monodromy(orbit)))
            vals.append((2.0 - tr) / eps)
        extrap = richardson(vals)
        want = trace_b_coefficient(n)
        rel = abs(extrap - want) / abs(want)
        worst = max(worst, rel)
        assert rel < 1e-3, (n, extrap, want)
    _report(6, f"linear trace coefficient extrapolation: worst rel err {worst:.2e}")


def test_criterion_07_twist_coefficient():
    ladder = (1e-3, 5e-4, 2.5e-4)
    vals = [e * e * birkhoff_A(taylor_jet(ReducedMap(3, e))).A for e in ladder]
    extrap = richardson(vals)
    assert extrap == pytest.approx(0.0338912, abs=1e-3)
    asymptote = 5 * (math.pi - 2) / (24 * math.pi**2)
    tl = twist_limit(1000)
    assert tl == pytest.approx(asymptote, abs=1e-3)
    _report(
        7,
        f"twist limit: extrapolated {extrap:.7f} (n=3), closed form {tl:.7f} -> "
        f"{asymptote:.7f} (n=1000)",
    )


def test_criterion_08_rotation_number():
    worst = 0.0
    for n in (3, 5, 10):
        eps = min(1e-3, epsilon_star(n) / 500.0)
        got = birkhoff_A(taylor_jet(ReducedMap(n, eps))).mu / math.sqrt(eps)
        want = rotation_number_leading(n, eps) / math.sqrt(eps)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        assert rel < 1e-2, (n, got, want)
    _report(8, f"rotation number sqrt-scaling coefficient: worst rel err {worst:.2e}")


def test_criterion_09_property_suite():
    notes = []

    # area preservation: finite-difference determinant at 1000 random points
    # (central differences with one Richardson level to clear the h^2 bias)
    rmap = ReducedMap(4, 0.01)
    rng = np.random.default_rng(2024)

    def fd_det(s, r, h):
        J = np.zeros((2, 2))
        for col, (ds, dr) in enumerate(((h, 0.0), (0.0, h))):
            sp, rp = rmap.apply(s + ds, r + dr)
            sm, rm = rmap.apply(s - ds, r - dr)
            J[:, col] = [(sp - sm) / (2 * h), (rp - rm) / (2 * h)]
        return float(np.linalg.det(J))

    worst_det = 0.0
    for _ in range(1000):
        s = rmap.s0 + rng.normal(scale=0.02)
        r = rmap.r0 + rng.normal(scale=0.02)
        det = (4.0 * fd_det(s, r, 5e-6) - fd_det(s, r, 1e-5)) / 3.0
        worst_det = max(worst_det, abs(det - 1.0))
    assert worst_det < 1e-8
    notes.append(f"det defect {worst_det:.1e}")

    # reversibility: mirror symmetry commutes with the dynamics
    orbit_b = build_type_b(4, 0.01)
    base = orbit_b.points[0]
    worst_rev = 0.0
    for _ in range(100):
        p = PhasePoint(
            Wall.OUTER,
            base.s + rng.normal(scale=0.05),
            base.theta + rng.normal(scale=0.05),
        )
        a = generic_step(reflection(p), orbit_b.pose).point
        b = reflection(generic_step(p, orbit_b.pose).point)
        assert a.wall is b.wall
        ds = wrap_pi(a.s - b.s) if a.wall is Wall.OUTER else a.s - b.s
        worst_rev = max(worst_rev, abs(ds), abs(a.theta - b.theta))
    assert worst_rev < 1e-10
    notes.append(f"reversibility {worst_rev:.1e}")

    # closure of every constructed orbit on the acceptance grid
    worst_cl = 0.0
    for n, k, R, delta in grid_tables():
        worst_cl = max(worst_cl, verify_closure(build_type_a(TableParams.type_a(n, k, R, delta))))
    for n, eps in [(3, 0.01), (4, 0.005), (5, 2e-3), (10, 1e-4)]:
        worst_cl = max(worst_cl, verify_closure(build_type_b(n, eps)))
    assert worst_cl < 1e-9
    notes.append(f"closure {worst_cl:.1e}")

    # caustic tangency of the polygon chords
    worst_ct = 0.0
    for (n, k) in [(4, 1), (7, 1), (5, 2), (9, 4)]:
        orbit = build_type_a(TableParams.type_a(n, k, 0.5 * max_radius(n, k, 0.0), 0.0))
        pts = np.array(orbit.cartesian_points())
        want = math.cos(k * math.pi / n)
        for i in range(n - 1):
            a, b = pts[i], pts[i + 1]
            t = (b - a) / np.hypot(*(b - a))
            worst_ct = max(worst_ct, abs(abs(a[0] * t[1] - a[1] * t[0]) - want))
    assert worst_ct < 1e-10
    notes.append(f"caustic {worst_ct:.1e}")

    # jet vs high-precision finite differences
    worst_jet = 0.0
    for n, eps in [(3, 0.01), (5, 1e-3), (10, 1e-4)]:
        rm = ReducedMap(n, eps)
        worst_jet = max(worst_jet, taylor_jet(rm).max_rel_disagreement(fd_taylor_jet(rm)))
    assert worst_jet < 1e-6
    notes.append(f"jet-vs-fd {worst_jet:.1e}")

    # bound function monotone and below 2*pi
    xs = np.geomspace(1.01, 1e4, 1500)
    vals = [lemma_f(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert max(vals) < 2 * math.pi
    notes.append("bound monotone < 2*pi")

    _report(9, "property suite: " + ", ".join(notes))


def test_criterion_10_island_evidence():
    bounded, _ = island_sampler(3, 0.02, 1e-4, 10_000, seed=1)
    assert not bounded.escaped
    assert bounded.max_excursion <= 10.0 * 1e-4
    eps_h = 2.0 * epsilon_star(4)
    divergent, _ = island_sampler(4, eps_h, 1e-4, 1000, seed=1)
    assert divergent.escaped or divergent.max_excursion > 1e3 * 1e-4
    _report(
        10,
        "island evidence: bounded cloud (max excursion "
        f"{bounded.max_excursion:.2e} from radius 1e-4) vs divergent cloud at "
        f"detuning {eps_h:.4f} (escaped={divergent.escaped}, "
        f"excursion {divergent.max_excursion:.2e})",
    )


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
