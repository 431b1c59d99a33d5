"""Traces, classifications, bifurcation loci and the winding-number bound."""

import math

import numpy as np
import pytest

from annular_billiards.errors import ClassificationError, DomainError, GrazingError
from annular_billiards.geometry import TableParams, max_radius, max_radius_delta
from annular_billiards.linear_stability import (
    Classification,
    admissible_interval,
    bifurcation_radius,
    bounce_jacobian,
    bounce_jacobian_birkhoff,
    classify,
    delta_star,
    epsilon_star,
    epsilon_star_large_n,
    lemma_f,
    min_period_for_k,
    monodromy,
    orbit_stability,
    stability_report,
    star_inequality,
    symplectic_defect,
    trace_b_coefficient,
    trace_b_expansion,
    trace_closed_form,
)
from annular_billiards.orbits import build_type_a, build_type_b

#: the verification grid: every coprime pair exercised by the closed forms
GRID_PAIRS = [(n, 1) for n in range(3, 11)] + [(5, 2), (7, 2), (7, 3), (9, 2), (9, 4)]
GRID_DELTAS = [0.0, 0.01, 0.05]
GRID_FRACTIONS = [0.2, 0.4, 0.6, 0.8, 0.95]


def grid_tables():
    for n, k in GRID_PAIRS:
        for delta in GRID_DELTAS:
            try:
                cap = max_radius(n, k, delta)
            except DomainError:
                continue
            for frac in GRID_FRACTIONS:
                yield n, k, frac * cap, delta


class TestBounceJacobian:
    def test_flat_wall(self):
        th = 0.9
        J = bounce_jacobian(1.7, 0.0, 0.0, th, th)
        want = -np.array([[1.0, 1.7 / math.sin(th)], [0.0, 1.0]])
        np.testing.assert_allclose(J, want, atol=1e-15)

    def test_disk_bounce_product(self):
        n, th = 8, 0.6
        tau = 2 * math.sin(th)
        J = bounce_jacobian(tau, -1.0, -1.0, th, th)
        M = np.linalg.matrix_power(J, n - 1)
        np.testing.assert_allclose(M, [[1.0, -2.0 * (n - 1)], [0.0, 1.0]], atol=1e-12)

    def test_determinant_ratio(self):
        J = bounce_jacobian(0.5, 1.0 / 0.3, -1.0, 1.2, 0.7)
        assert np.linalg.det(J) == pytest.approx(math.sin(1.2) / math.sin(0.7), abs=1e-12)

    def test_birkhoff_frame_unimodular(self):
        J = bounce_jacobian_birkhoff(0.5, 1.0 / 0.3, -1.0, 1.2, 0.7)
        assert abs(np.linalg.det(J) - 1.0) < 1e-12

    def test_grazing_guard(self):
        with pytest.raises(GrazingError):
            bounce_jacobian(1.0, -1.0, -1.0, 0.5, 1e-14)

    def test_finite_difference_match(self):
        # cross-checked against the ray tracer in the dynamics tests; here a
        # direct disk-step comparison with the T-conjugation convention
        from annular_billiards.billiard_map import PhasePoint, Wall, generic_step, wrap_pi

        th, s = 0.83, 0.31
        h = 1e-7
        J = np.zeros((2, 2))
        for col, (ds, dth) in enumerate(((h, 0.0), (0.0, h))):
            a = generic_step(PhasePoint(Wall.OUTER, s + ds, th + dth), None).point
            b = generic_step(PhasePoint(Wall.OUTER, s - ds, th - dth), None).point
            J[0, col] = wrap_pi(a.s - b.s) / (2 * h)
            J[1, col] = (a.theta - b.theta) / (2 * h)
        T = np.diag([1.0, -1.0])
        want = bounce_jacobian(2 * math.sin(th), -1.0, -1.0, th, th)
        np.testing.assert_allclose(T @ J @ T, want, atol=1e-6)


class TestMonodromy:
    def test_symmetric_tables_are_parabolic(self):
        for n, k in GRID_PAIRS:
            R = 0.5 * max_radius(n, k, 0.0)
            orbit = build_type_a(TableParams.type_a(n, k, R, 0.0))
            M = monodromy(orbit)
            assert np.trace(M) == pytest.approx(2.0, abs=1e-9), (n, k)
            assert symplectic_defect(M) < 1e-9

    def test_closed_form_match(self):
        orbit = build_type_a(TableParams.type_a(4, 1, 0.25, 0.05))
        tr = float(np.trace(monodromy(orbit)))
        assert tr == pytest.approx(trace_closed_form(4, 1, 0.25, 0.05), abs=1e-9)

    def test_birkhoff_frame_same_trace(self):
        orbit = build_type_a(TableParams.type_a(5, 2, 0.08, 0.01))
        t1 = float(np.trace(monodromy(orbit)))
        t2 = float(np.trace(monodromy(orbit, birkhoff_frame=True)))
        assert t1 == pytest.approx(t2, abs=1e-9)
        for bf in (False, True):
            assert symplectic_defect(monodromy(orbit, birkhoff_frame=bf)) < 1e-9

    def test_tangent_orbit_elliptic_at_small_detuning(self):
        orbit = build_type_b(3, 0.01)
        report = orbit_stability(orbit)
        assert abs(report.trace) < 2
        assert report.classification is Classification.ELLIPTIC
        assert report.mu is not None
        lam, lam_inv = report.eigenvalues
        assert lam * lam_inv == pytest.approx(1.0, abs=1e-9)


def _per_bounce_jacobian(tau, kappa, kappa1, theta, theta1, birkhoff_frame):
    """The former one-bounce-at-a-time Jacobian, kept as the reference."""
    st1, st = math.sin(theta1), math.sin(theta)
    J = -np.array(
        [
            [(tau * kappa + st) / st1, tau / st1],
            [(tau * kappa * kappa1 + kappa1 * st) / st1 + kappa, tau * kappa1 / st1 + 1.0],
        ]
    )
    if birkhoff_frame:
        J = np.diag([1.0, st1]) @ J @ np.diag([1.0, 1.0 / st])
    return J


def _per_bounce_monodromy(orbit, birkhoff_frame=False):
    m = orbit.period
    M = np.eye(2)
    for i in range(m):
        j = (i + 1) % m
        J = _per_bounce_jacobian(
            orbit.flights[i],
            orbit.curvatures[i],
            orbit.curvatures[j],
            orbit.points[i].theta,
            orbit.points[j].theta,
            birkhoff_frame,
        )
        M = J @ M
    return M


class TestStackedBounces:
    def test_stack_equals_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(11)
        m = 1000
        tau = rng.uniform(1e-3, 2.0, m)
        kappa = rng.choice([-1.0, 1.0 / 0.3, 1.0 / 0.003], m)
        kappa1 = rng.choice([-1.0, 1.0 / 0.05], m)
        theta = rng.uniform(1e-3, math.pi - 1e-3, m)
        theta1 = rng.uniform(1e-3, math.pi - 1e-3, m)
        columns = [a.tolist() for a in (tau, kappa, kappa1, theta, theta1)]
        for factory, birkhoff_frame in ((bounce_jacobian, False), (bounce_jacobian_birkhoff, True)):
            stack = factory(tau, kappa, kappa1, theta, theta1)
            assert stack.shape == (m, 2, 2)
            single = [factory(*args) for args in zip(*columns)]
            assert all(J.shape == (2, 2) for J in single)
            assert np.array_equal(stack, single)
            ref = [_per_bounce_jacobian(*args, birkhoff_frame) for args in zip(*columns)]
            assert np.array_equal(stack, ref)

    def test_grazing_guard_covers_the_whole_stack(self):
        theta1 = np.array([0.5, 1e-14, 1.0])
        with pytest.raises(GrazingError, match=r"sin\(theta1\) = 1e-14 "):
            bounce_jacobian(np.ones(3), -np.ones(3), -np.ones(3), np.full(3, 0.5), theta1)

    def test_monodromy_equals_per_bounce_loop_bit_for_bit(self):
        orbits = [build_type_b(n, eps) for n, eps in ((3, 0.01), (6, 0.002), (10, 1e-4))]
        for n, k in ((5, 1), (5, 2), (10, 3), (13, 4), (21, 5), (53, 6)):
            for frac in (0.0, 0.03, 0.1):
                delta = frac * max_radius(n, k, 0.0)
                for r_frac in (0.1, 0.5, 0.95):
                    R = r_frac * max_radius(n, k, delta)
                    orbits.append(build_type_a(TableParams.type_a(n, k, R, delta)))
        for orbit in orbits:
            for bf in (False, True):
                M = monodromy(orbit, birkhoff_frame=bf)
                assert np.array_equal(M, _per_bounce_monodromy(orbit, bf)), orbit.params


class TestTraceClosedForm:
    def test_symmetric_is_two(self):
        assert trace_closed_form(5, 1, 0.1, 0.0) == 2.0

    def test_zero_radius_guard(self):
        with pytest.raises(DomainError):
            trace_closed_form(5, 1, 0.0, 0.01)

    def test_grid_against_monodromy(self):
        for n, k, R, delta in grid_tables():
            closed = trace_closed_form(n, k, R, delta)
            orbit = build_type_a(TableParams.type_a(n, k, R, delta))
            numeric = float(np.trace(monodromy(orbit)))
            assert abs(closed - numeric) < 1e-8, (n, k, R, delta)

    def test_necessity_condition(self):
        # trace < 2 exactly when n R^2 - R sin(k pi/n) - n delta^2 > 0
        for n, k, R, delta in grid_tables():
            if delta == 0.0:
                continue
            tr = trace_closed_form(n, k, R, delta)
            quad = n * R * R - R * math.sin(k * math.pi / n) - n * delta * delta
            assert (tr < 2.0) == (quad > 0.0), (n, k, R, delta)


class TestBifurcationRadius:
    def test_symmetric_limit(self):
        assert bifurcation_radius(6, 1, 0.0) == pytest.approx(
            math.sin(math.pi / 6) / 6, abs=1e-15
        )

    def test_trace_is_two_at_root(self):
        for (n, k, delta) in [(5, 1, 0.05), (7, 3, 0.004), (9, 2, 0.01)]:
            R = bifurcation_radius(n, k, delta)
            assert trace_closed_form(n, k, R, delta) == pytest.approx(2.0, abs=1e-12)

    def test_window_crossings(self):
        assert delta_star(5) == pytest.approx(0.11004, abs=1e-4)
        assert delta_star(20) == pytest.approx(0.00740, abs=1e-4)

    def test_classification_flip_across_root(self):
        n, k, delta = 5, 1, 0.05
        R = bifurcation_radius(n, k, delta)
        assert classify(trace_closed_form(n, k, R * 0.999, delta)) is Classification.HYPERBOLIC
        assert classify(trace_closed_form(n, k, R * 1.001, delta)) is Classification.ELLIPTIC


class TestAdmissibleInterval:
    def test_nonempty_window(self):
        iv = admissible_interval(5, 1, 0.05)
        assert iv is not None
        lo, hi = iv
        assert lo == pytest.approx(bifurcation_radius(5, 1, 0.05), abs=1e-15)
        assert hi == pytest.approx(max_radius_delta(5, 0.05), abs=1e-15)
        for R in np.linspace(lo, hi, 100)[1:]:
            assert abs(trace_closed_form(5, 1, R, 0.05)) < 2.0

    def test_symmetric_case_empty(self):
        assert admissible_interval(5, 1, 0.0) is None

    def test_large_displacement_empty(self):
        assert admissible_interval(5, 1, 0.2) is None


class TestWindingNumberBound:
    def test_min_period_table(self):
        assert min_period_for_k(2) == 5
        assert min_period_for_k(3) == 9
        assert min_period_for_k(4) == 13
        assert min_period_for_k(5) == 21
        assert min_period_for_k(6) == 53

    def test_k_seven_impossible(self):
        assert min_period_for_k(7) is None
        assert min_period_for_k(10) is None

    def test_monotone_in_k(self):
        # if the inequality holds at (k*, n) it holds for all smaller k
        for n in (9, 21, 53, 200):
            ks = [k for k in range(2, n // 2) if star_inequality(n, k)]
            if ks:
                assert ks == list(range(2, max(ks) + 1))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            min_period_for_k(1)


class TestLemmaFunction:
    def test_strictly_increasing_on_grid(self):
        xs = np.concatenate([np.arange(1.01, 10.0, 0.01), np.geomspace(10.0, 1e4, 2000)])
        vals = [lemma_f(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bounded_by_two_pi(self):
        xs = np.geomspace(1.01, 1e6, 4000)
        assert all(lemma_f(x) < 2 * math.pi for x in xs)
        assert lemma_f(1e6) == pytest.approx(2 * math.pi, abs=1e-4)

    def test_floor_reproduces_max_winding(self):
        for n in (5, 9, 13, 21, 53, 100, 1000):
            direct = max(
                (k for k in range(2, n // 2 + 1) if star_inequality(n, k)),
                default=1,
            )
            assert min(math.floor(lemma_f(n)), n // 2) == direct or direct == 1

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            lemma_f(1.0)


class TestTangentTrace:
    def test_zero_detuning_parabolic(self):
        assert trace_b_expansion(5, 0.0) == 2.0

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_linear_coefficient_against_monodromy(self, n):
        base = min(1e-3, epsilon_star(n) / 20.0)
        vals = []
        for eps in (base, base / 2, base / 4):
            orbit = build_type_b(n, eps)
            tr = float(np.trace(monodromy(orbit)))
            vals.append((2.0 - tr) / eps)
        r1 = [2 * vals[1] - vals[0], 2 * vals[2] - vals[1]]
        extrap = (4 * r1[1] - r1[0]) / 3
        want = trace_b_coefficient(n)
        assert extrap == pytest.approx(want, rel=1e-3)

    def test_threshold_scalings(self):
        for n in (50, 200, 1000):
            assert epsilon_star(n) == pytest.approx(epsilon_star_large_n(n), rel=5e-2 * 50 / n + 1e-3)

    def test_threshold_positive_and_decreasing(self):
        vals = [epsilon_star(n) for n in range(3, 40)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLargeWindingNumbers:
    def test_k_seven_always_hyperbolic(self):
        # no admissible radius yields |trace| < 2 once the winding number
        # exceeds the bound
        for n in [15, 16, 17, 18, 19, 20, 23, 29, 40, 999]:
            if math.gcd(7, n) != 1:
                continue
            for delta in (1e-3, 5e-3):
                try:
                    cap = max_radius(n, 7, delta)
                except DomainError:
                    continue
                for frac in (0.2, 0.6, 0.99):
                    tr = trace_closed_form(n, 7, frac * cap, delta)
                    assert tr > 2.0, (n, delta, frac)

    def test_max_winding_saturates_at_six(self):
        for n in (10**3, 10**4, 10**5):
            mx = max(k for k in range(2, 10) if star_inequality(n, k))
            assert mx == 6


class TestClassification:
    def test_examples(self):
        assert classify(2.0) is Classification.PARABOLIC
        assert classify(1.5) is Classification.ELLIPTIC
        assert classify(-3.0) is Classification.HYPERBOLIC
        assert classify(-2.0) is Classification.PARABOLIC

    @pytest.mark.parametrize("trace", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_trace_rejected(self, trace):
        with pytest.raises(ClassificationError):
            classify(trace)

    def test_radius_sweep_order(self):
        # hyperbolic below the bifurcation radius, parabolic at it, elliptic above
        n, k, delta = 6, 1, 0.03
        rb = bifurcation_radius(n, k, delta)
        cap = max_radius_delta(n, delta)
        assert rb < cap
        seen = []
        for R in np.linspace(0.3 * rb, cap, 300):
            c = classify(trace_closed_form(n, k, R, delta))
            if not seen or seen[-1] != c:
                seen.append(c)
        assert seen == [
            Classification.HYPERBOLIC,
            Classification.PARABOLIC,
            Classification.ELLIPTIC,
        ] or seen == [Classification.HYPERBOLIC, Classification.ELLIPTIC]

    def test_stability_report_eigenvalues(self):
        rep = stability_report(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert rep.classification is Classification.ELLIPTIC
        assert rep.mu == pytest.approx(math.pi / 2, abs=1e-12)
        rep_h = stability_report(np.array([[3.0, 0.0], [0.0, 1.0 / 3.0]]))
        assert rep_h.classification is Classification.HYPERBOLIC
        assert rep_h.mu is None
