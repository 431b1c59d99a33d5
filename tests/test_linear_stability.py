"""Traces, classifications, bifurcation loci and the winding-number bound."""

import math
import random

import numpy as np
import pytest

from annular_billiards import linear_stability
from annular_billiards.birkhoff import ReducedMap, birkhoff_A, taylor_jet
from annular_billiards.errors import BilliardError, ClassificationError, DomainError, GrazingError, InvalidTableError
from annular_billiards.geometry import TableParams, max_radius
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
    star_inequality,
    symplectic_defect,
    trace_closed_form,
)
from annular_billiards.orbits import build_type_a, build_type_b

#: the (n, k) cases of the stability-scan benchmark, periods 12 to 108
BENCH_CASES = ((5, 1), (5, 2), (10, 3), (13, 4), (21, 5), (53, 6))

#: the verification grid: every coprime pair exercised by the closed forms
GRID_PAIRS = [(n, 1) for n in range(3, 11)] + [(5, 2), (7, 2), (7, 3), (9, 2), (9, 4)]
GRID_DELTAS = [0.0, 0.01, 0.05]
GRID_FRACTIONS = [0.2, 0.4, 0.6, 0.8, 0.95]


def grid_tables():
    for n, k in GRID_PAIRS:
        for delta in GRID_DELTAS:
            try:
                cap = max_radius(n, k, delta)
            except InvalidTableError:
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
        from annular_billiards.orbits import PhasePoint, Wall, generic_step, wrap_pi

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
        # the unit-determinant (s, cos theta) bounces multiply to a conjugate
        # of the monodromy around the closed orbit
        orbit = build_type_a(TableParams.type_a(5, 2, 0.08, 0.01))
        M = monodromy(orbit)
        B = np.eye(2)
        for i in range(orbit.period):
            j = (i + 1) % orbit.period
            B = (
                bounce_jacobian_birkhoff(
                    orbit.flights[i],
                    orbit.curvatures[i],
                    orbit.curvatures[j],
                    orbit.points[i].theta,
                    orbit.points[j].theta,
                )
                @ B
            )
        assert float(np.trace(M)) == pytest.approx(float(np.trace(B)), abs=1e-9)
        assert symplectic_defect(M) < 1e-9
        assert symplectic_defect(B) < 1e-9

    def test_tangent_orbit_elliptic_at_small_detuning(self):
        M = monodromy(build_type_b(3, 0.01))
        assert classify(M[0][0] + M[1][1]) is Classification.ELLIPTIC
        assert symplectic_defect(M) < 1e-9


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


def _per_bounce_monodromy(orbit):
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
            False,
        )
        M = J @ M
    return M


class TestPerBounceProducts:
    def test_bounces_equal_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(11)
        m = 1000
        tau = rng.uniform(1e-3, 2.0, m)
        kappa = rng.choice([-1.0, 1.0 / 0.3, 1.0 / 0.003], m)
        kappa1 = rng.choice([-1.0, 1.0 / 0.05], m)
        theta = rng.uniform(1e-3, math.pi - 1e-3, m)
        theta1 = rng.uniform(1e-3, math.pi - 1e-3, m)
        columns = [a.tolist() for a in (tau, kappa, kappa1, theta, theta1)]
        for factory, birkhoff_frame in ((bounce_jacobian, False), (bounce_jacobian_birkhoff, True)):
            for args in zip(*columns):
                J = factory(*args)
                assert all(type(x) is float for row in J for x in row)
                assert np.array_equal(J, _per_bounce_jacobian(*args, birkhoff_frame)), args

    def test_grazing_guard_covers_every_bounce(self):
        orbit = build_type_a(TableParams.type_a(7, 2, 0.03, 0.0))
        points = list(orbit.points)
        points[5] = points[5]._replace(theta=1e-13)
        with pytest.raises(GrazingError, match=r"sin\(theta1\) = 1e-13 "):
            monodromy(orbit._replace(points=tuple(points)))

    def test_monodromy_matches_the_per_bounce_numpy_loop(self):
        # the float product rounds apart from NumPy's stacked matmul, by a
        # few units in the last place of the matrix's largest entry
        orbits = [build_type_b(n, eps) for n, eps in ((3, 0.01), (6, 0.002), (10, 1e-4))]
        for n, k in ((5, 1), (5, 2), (10, 3), (13, 4), (21, 5), (53, 6)):
            for frac in (0.0, 0.03, 0.1):
                delta = frac * max_radius(n, k, 0.0)
                for r_frac in (0.1, 0.5, 0.95):
                    R = r_frac * max_radius(n, k, delta)
                    orbits.append(build_type_a(TableParams.type_a(n, k, R, delta)))
        for orbit in orbits:
            M, want = np.array(monodromy(orbit)), _per_bounce_monodromy(orbit)
            assert np.abs(M - want).max() <= 1e-13 * np.abs(want).max(), orbit.params


def _bounce_by_bounce_monodromy(orbit):
    """The float product with one ``bounce_jacobian`` per collision, none reused."""
    thetas = [p.theta for p in orbit.points]
    kappa = orbit.curvatures
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for tau, k0, k1, t0, t1 in zip(orbit.flights, kappa, kappa[1:] + kappa[:1], thetas, thetas[1:] + thetas[:1]):
        (j00, j01), (j10, j11) = bounce_jacobian(tau, k0, k1, t0, t1)
        a, b, c, d = j00 * a + j01 * c, j00 * b + j01 * d, j10 * a + j11 * c, j10 * b + j11 * d
    return (a, b), (c, d)


def _bits(M):
    return [x.hex() for row in M for x in row]


class TestRepeatedBounces:
    """``monodromy`` forms a bounce only where its inputs change, with the
    bits of forming every bounce."""

    @staticmethod
    def _orbits():
        rng = random.Random(19)
        for n, k in BENCH_CASES:
            for _ in range(12):
                delta = rng.choice((0.0, rng.uniform(0.0, 0.1))) * max_radius(n, k, 0.0)
                R = rng.uniform(0.02, 0.98) * max_radius(n, k, delta)
                try:
                    yield build_type_a(TableParams.type_a(n, k, R, delta))
                except BilliardError:
                    continue
        for n in range(3, 13):
            yield build_type_b(n, 0.3 * epsilon_star(n))

    def test_monodromy_equals_the_bounce_by_bounce_product_bit_for_bit(self, monkeypatch):
        formed = []
        monkeypatch.setattr(
            linear_stability, "bounce_jacobian", lambda *args: formed.append(args) or bounce_jacobian(*args)
        )
        type_a = []
        for orbit in self._orbits():
            formed.clear()
            assert _bits(monodromy(orbit)) == _bits(_bounce_by_bounce_monodromy(orbit)), orbit.params
            assert len(formed) <= orbit.period
            if orbit.params.epsilon == 0.0:
                # one run of n - 1 disk bounces each way and the four at the scatterer
                assert len(formed) == 6, orbit.params
                type_a.append(orbit.params.n)
        assert len(type_a) >= 50 and set(type_a) == {n for n, _ in BENCH_CASES}

    @pytest.mark.parametrize("grazing", [[3], [2, 3, 4]], ids=["one", "several"])
    def test_grazing_bounce_inside_a_run_is_refused(self, grazing):
        # points 0..6 are the outer collisions of one side, so bounces 0..5
        # repeat one input until a grazing point breaks the run
        orbit = build_type_a(TableParams.type_a(7, 2, 0.03, 0.0))
        points = list(orbit.points)
        for i in grazing:
            points[i] = points[i]._replace(theta=1e-13)
        orbit = orbit._replace(points=tuple(points))
        with pytest.raises(GrazingError) as want:
            _bounce_by_bounce_monodromy(orbit)
        with pytest.raises(GrazingError) as got:
            monodromy(orbit)
        assert str(got.value) == str(want.value) == f"sin(theta1) = {math.sin(1e-13)!r} too close to zero"


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
        # at delta* the bifurcation radius meets the cap to rounding
        for n in (3, 4, 5, 7, 20, 53, 200):
            d = delta_star(n)
            cap = max_radius(n, 1, d)
            assert abs(bifurcation_radius(n, 1, d) - cap) <= 1e-12 * cap, n

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
        assert hi == pytest.approx(max_radius(5, 1, 0.05), abs=1e-15)
        for R in np.linspace(lo, hi, 100)[1:]:
            assert abs(trace_closed_form(5, 1, R, 0.05)) < 2.0

    def test_symmetric_case_empty(self):
        assert admissible_interval(5, 1, 0.0) is None

    def test_large_displacement_empty(self):
        assert admissible_interval(5, 1, 0.2) is None

    def test_window_ends_where_trace_reaches_minus_two(self):
        # for k >= 2 the -2 crossing can come before the cap
        n, k, delta = 11, 2, 0.045
        lo, hi = admissible_interval(n, k, delta)
        s = math.sin(k * math.pi / n)
        assert hi == pytest.approx(2 * n * delta**2 / (2 * n * delta - s), rel=1e-15)
        assert hi < max_radius(n, k, delta)
        assert abs(trace_closed_form(n, k, hi, delta) + 2.0) <= 1e-12
        assert lo == bifurcation_radius(n, k, delta)
        assert type(lo) is float and type(hi) is float


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
        # past x ~ 2.1e154, sin^2(pi/x) is no longer a normal float
        for x in (1.0, 1e160, 1e200, 1e308):
            with pytest.raises(DomainError):
                lemma_f(x)


class TestTangentTrace:
    def test_zero_detuning_parabolic(self):
        # at delta = 0 the chord-perpendicular orbit's monodromy is a shear:
        # trace 2, as the closed form gives, at every admissible radius
        for (n, k) in [(5, 1), (7, 2), (9, 4)]:
            for frac in (0.2, 0.6, 0.95):
                R = frac * max_radius(n, k, 0.0)
                M = monodromy(build_type_a(TableParams.type_a(n, k, R, 0.0)))
                tr = M[0][0] + M[1][1]
                assert tr == pytest.approx(2.0, abs=1e-12)
                assert trace_closed_form(n, k, R, 0.0) == 2.0
                assert classify(tr) is Classification.PARABOLIC
                assert M[1][0] == pytest.approx(0.0, abs=1e-12)

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
        # the paper's c1 in trace = 2 - c1*eps, of which epsilon_star is 4/c1
        want = 4.0 / epsilon_star(n)
        assert extrap == pytest.approx(want, rel=1e-3)

    def test_threshold_scalings(self):
        for n in (50, 200, 1000):
            assert epsilon_star(n) == pytest.approx(epsilon_star_large_n(n), rel=5e-2 * 50 / n + 1e-3)

    def test_threshold_positive_and_decreasing(self):
        vals = [epsilon_star(n) for n in range(3, 40)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_window_claims_of_the_docstring(self):
        # elliptic at 1.2 epsilon_star and hyperbolic at 2 epsilon_star for
        # n = 4..40, by the ray-traced monodromy and by the map's jet; at
        # n = 3 the orbit ends below 0.9555 epsilon_star, and both routes
        # refuse those tables
        for n in range(3, 41):
            for factor, want in ((1.2, Classification.ELLIPTIC), (2.0, Classification.HYPERBOLIC)):
                eps = factor * epsilon_star(n)
                if n == 3:
                    with pytest.raises(InvalidTableError, match="did not close"):
                        build_type_b(n, eps)
                    with pytest.raises(InvalidTableError, match="disk chord 0"):
                        ReducedMap(n, eps)
                    continue
                (a, _), (_, d) = monodromy(build_type_b(n, eps))
                half = taylor_jet(ReducedMap(n, eps)).trace()
                assert classify(a + d) is classify(half * half - 2.0) is want, (n, factor)
        assert ReducedMap(3, 0.955 * epsilon_star(3)).fixed_point
        with pytest.raises(InvalidTableError, match="disk chord 0"):
            ReducedMap(3, 0.956 * epsilon_star(3))


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
                except InvalidTableError:
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
        cap = max_radius(n, 1, delta)
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
        # elliptic: the eigenvalues are a conjugate pair on the unit circle,
        # at twice the reduced map's angle, since the period is its square
        M = np.array(monodromy(build_type_b(3, 0.01)))
        assert classify(np.trace(M)) is Classification.ELLIPTIC
        lam = np.linalg.eigvals(M)
        assert np.abs(lam) == pytest.approx([1.0, 1.0], abs=1e-9)
        assert lam[0] == pytest.approx(np.conj(lam[1]), abs=1e-12)
        mu = birkhoff_A(taylor_jet(ReducedMap(3, 0.01))).mu
        assert abs(np.angle(lam[0])) == pytest.approx(-2.0 * mu, abs=1e-9)
        # hyperbolic: a real pair lambda, 1/lambda
        n, k, delta = 6, 1, 0.03
        R = 0.5 * bifurcation_radius(n, k, delta)
        M = np.array(monodromy(build_type_a(TableParams.type_a(n, k, R, delta))))
        assert classify(np.trace(M)) is Classification.HYPERBOLIC
        lam = np.linalg.eigvals(M)
        assert np.isrealobj(lam) or not np.any(lam.imag)
        assert lam[0] * lam[1] == pytest.approx(1.0, abs=1e-9)
        assert max(abs(lam)) > 4.0
