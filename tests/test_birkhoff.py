"""Twist-coefficient pipeline: jets, c-terms, closed forms, island evidence."""

import hashlib
import math
import random
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from annular_billiards.billiard_map import (
    FLOAT_BACKEND,
    BirkhoffCoords,
    half_period_formula,
)
from annular_billiards import birkhoff
from annular_billiards.birkhoff import (
    BirkhoffReport,
    IslandReport,
    ReducedMap,
    TaylorJet3,
    birkhoff_A,
    c_terms,
    closed_form_A,
    closed_form_A_large_n,
    fd_taylor_jet,
    island_sampler,
    rotation_number_leading,
    taylor_jet,
    twist_limit,
)
from annular_billiards.errors import (
    BilliardError,
    ClassificationError,
    DomainError,
    InvalidTableError,
    NoCollisionError,
    NonEllipticNormalizationError,
    PrecisionError,
    ResonanceError,
    SingularConfigurationError,
)
from annular_billiards.jets import _MUL_TABLE, MONOMIALS, Jet2, jet_acos, jet_cos
from annular_billiards.linear_stability import (
    bounce_jacobian_birkhoff,
    epsilon_star,
    monodromy,
    symplectic_defect,
)
from annular_billiards.orbits import PhasePoint, Wall, build_type_b, generic_step, wrap_pi

#: sha256 of the audit's 20 coefficients, packed as little-endian doubles,
#: over the tables of ``TestTaylorJet.test_audit_bits_are_pinned`` (mpmath 1.3)
AUDIT_SHA256 = "6ba45a56ea450d2d3670f37a842271f3b27141e4764d900e460384d777d1c4f0"

#: frozen reference values of the closed-form twist limit
TWIST_LIMIT_N3 = 0.0338912
TWIST_LIMIT_INF = 5 * (math.pi - 2) / (24 * math.pi**2)  # ~0.0240974


def richardson(values):
    """Extrapolate a halving ladder assuming integer-power remainders."""
    level = list(values)
    order = 1
    while len(level) > 1:
        w = 2.0**order
        level = [(w * level[i + 1] - level[i]) / (w - 1.0) for i in range(len(level) - 1)]
        order += 1
    return level[0]


def scaled_ladder(n, base=1e-3, ref=3):
    """Detuning ladder shrunk with the stability window ~ n^-3."""
    b = base * (ref / n) ** 3
    return [b, b / 2, b / 4]


class ShiftedMap(ReducedMap):
    """A reduced map whose ``fixed_point`` is moved by (ds, dr): a point the
    map does not fix, or, with |r| > 1, one off the arccos domain."""

    def __init__(self, n, epsilon, ds, dr):
        super().__init__(n, epsilon)
        self.shift = (ds, dr)

    @property
    def fixed_point(self):
        return BirkhoffCoords(self.s0 + self.shift[0], self.r0 + self.shift[1])


class TestReducedMap:
    def test_fixed_point(self):
        rmap = ReducedMap(3, 0.01)
        s, r = half_period_formula(*rmap.fixed_point, rmap.n, rmap.R)
        assert s == pytest.approx(rmap.s0, abs=1e-10)
        assert r == pytest.approx(rmap.r0, abs=1e-10)

    @pytest.mark.parametrize("n,eps", [(3, 0.01), (4, 0.01), (5, 0.002), (7, 1e-3)])
    def test_square_equals_full_period(self, n, eps):
        # the composed map against the ray tracer, over whole periods
        rmap = ReducedMap(n, eps)
        orbit = build_type_b(n, eps)
        rng = np.random.default_rng(11)
        for _ in range(20):
            ds, dr = rng.normal(scale=1e-3, size=2)
            s, r = rmap.s0 + ds, rmap.r0 + dr
            got_s, got_r = half_period_formula(*half_period_formula(s, r, n, rmap.R), n, rmap.R)
            p = PhasePoint(Wall.OUTER, wrap_pi(s), math.acos(r))
            for _ in range(orbit.period):
                p = generic_step(p, orbit.pose).point
            assert wrap_pi(got_s - p.s) == pytest.approx(0.0, abs=1e-10)
            assert got_r == pytest.approx(math.cos(p.theta), abs=1e-10)

    def test_a_chord_that_misses_the_scatterer_is_refused(self):
        # after n-1 disk bounces the chord from (1, 0) at angle 2.6 heads
        # down-left and passes well under the scatterer: the ray tracer's
        # next wall is the outer one, and the map refuses the point
        n, theta = 3, 2.6
        rmap = ReducedMap(n, 0.01)
        pose = build_type_b(n, 0.01).pose
        s = -2.0 * (n - 1) * theta
        p = PhasePoint(Wall.OUTER, wrap_pi(s), theta)
        walls = []
        for _ in range(n):
            p = generic_step(p, pose).point
            walls.append(p.wall)
        assert walls == [Wall.OUTER] * n
        with pytest.raises(NoCollisionError):
            half_period_formula(s, math.cos(theta), n, rmap.R)

    def test_a_disk_chord_through_the_scatterer_is_refused_as_build_type_b_refuses(self):
        # a seeded grid of (n, eps) up to 2.4 epsilon*, and the n = 3 edge,
        # 0.9555 epsilon*, from either side: the map refuses a table exactly
        # where the ray tracer's type (b) orbit does not close
        rng = random.Random(37)
        points = [(n, rng.uniform(0.01, 2.4) * epsilon_star(n)) for n in rng.choices(range(3, 13), k=300)]
        points += [(3, 0.1087716581 - 1e-9), (3, 0.1087716581 + 1e-9)]
        verdicts = []
        for n, eps in points:
            try:
                ReducedMap(n, eps)
                verdict = None
            except InvalidTableError as exc:
                assert str(exc).startswith("disk chord ") and "meets the scatterer" in str(exc)
                verdict = "refused"
            try:
                build_type_b(n, eps)
                assert verdict is None, (n, eps)
            except InvalidTableError:
                assert verdict == "refused", (n, eps)
            verdicts.append(verdict)
        assert verdicts[-2:] == [None, "refused"]
        refused = [point for point, verdict in zip(points, verdicts) if verdict]
        assert len(refused) > 10 and {n for n, _ in refused} == {3}

    def test_linear_trace_against_monodromy(self):
        # trace of the full-period product equals t^2 - 2 for the half map
        for (n, eps) in [(3, 0.01), (5, 0.002)]:
            rmap = ReducedMap(n, eps)
            t_half = taylor_jet(rmap).trace()
            orbit = build_type_b(n, eps)
            t_full = float(np.trace(monodromy(orbit)))
            assert t_half**2 - 2.0 == pytest.approx(t_full, abs=1e-9)

    def test_trace_approaches_minus_two(self):
        prev_gap = None
        for eps in (1e-2, 1e-3, 1e-4):
            tr = taylor_jet(ReducedMap(3, eps)).trace()
            assert -2.0 < tr < 0.0
            gap = tr + 2.0
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            ReducedMap(2, 0.01)
        with pytest.raises(DomainError):
            ReducedMap(3, 0.0)

    @pytest.mark.parametrize("n,eps", [(3, 2.9), (3, 2.95), (3, math.pi - math.pi / 3), (5, 2.6)])
    def test_refuses_detuning_past_pi_minus_pi_over_n(self, n, eps):
        # theta0 = pi/n + eps >= pi is no reflection angle, even where the
        # tangency radius lands in (0, 1) again, as at n = 3, eps = 2.9
        with pytest.raises(DomainError, match=r"pi - pi/n"):
            ReducedMap(n, eps)


class TestTaylorJet:
    def test_linear_part_from_bounce_product(self):
        # the jet's linear block equals minus the product of the per-bounce
        # unit-determinant Jacobians along the half orbit (the mirror
        # symmetry contributes -identity)
        n, eps = 3, 0.01
        rmap = ReducedMap(n, eps)
        orbit = build_type_b(n, eps)
        L = np.eye(2)
        for i in range(n + 1):
            j = i + 1
            L = (
                bounce_jacobian_birkhoff(
                    orbit.flights[i],
                    orbit.curvatures[i],
                    orbit.curvatures[j],
                    orbit.points[i].theta,
                    orbit.points[j].theta,
                )
                @ L
            )
        jet = taylor_jet(rmap)
        np.testing.assert_allclose(jet.linear(), -L, atol=1e-9)

    def test_unit_determinant(self):
        for (n, eps) in [(3, 1e-3), (4, 1e-3), (10, 1e-4)]:
            jet = taylor_jet(ReducedMap(n, eps))
            assert symplectic_defect(jet.linear()) < 1e-8

    @pytest.mark.parametrize(
        "n,eps",
        [(3, 0.01), (4, 0.005), (5, 1e-3), (10, 1e-4), (36, 1.4e-5), (38, 3e-6), (40, 1e-7), (40, 1e-5)],
    )
    def test_matches_high_precision_differences(self, n, eps):
        rmap = ReducedMap(n, eps)
        jet = taylor_jet(rmap)
        audit = fd_taylor_jet(rmap)
        assert jet.max_rel_disagreement(audit) < 1e-6

    @pytest.mark.parametrize("n,eps", [(3, 0.01), (40, 1e-5)])
    def test_cross_check_passes_on_good_map(self, n, eps):
        taylor_jet(ReducedMap(n, eps), cross_check=True)

    def test_audit_bits_are_pinned(self):
        # the audit on mpmath.mp with the double pi differentiates the float
        # map: a backend that moved one bit of a sample would move this hash
        digest = hashlib.sha256()
        for n in (3, 4, 5, 7, 12, 20):
            for eps in (1e-5, 1e-4, 1e-3, 3e-3):
                jet = fd_taylor_jet(ReducedMap(n, eps))
                digest.update(struct.pack("<20d", *jet.s.c, *jet.r.c))
        assert digest.hexdigest() == AUDIT_SHA256

    def test_audit_ignores_and_keeps_the_callers_precision(self):
        import annular_billiards.birkhoff as bk
        from mpmath import mp

        # the cached fit matrix, built under one caller precision, serves another
        rmap = ReducedMap(7, 1e-3)
        saved, results = mp.dps, []
        try:
            for dps, rebuild_fit in [(15, True), (80, False), (80, True), (15, False)]:
                mp.dps = dps
                if rebuild_fit:
                    bk._fit_matrix.cache_clear()
                results.append(np.concatenate([side.c for side in fd_taylor_jet(rmap)]))
                assert mp.dps == dps
        finally:
            mp.dps = saved
        for other in results[1:]:
            np.testing.assert_array_equal(other, results[0])

    def test_cross_check_detects_corruption(self, monkeypatch):
        import annular_billiards.birkhoff as bk

        good = fd_taylor_jet(ReducedMap(3, 0.01))
        s = good.s.c
        bad = TaylorJet3(Jet2(s[:1] + tuple(x * (1.0 + 1e-3) for x in s[1:])), good.r)
        monkeypatch.setattr(bk, "fd_taylor_jet", lambda *a, **kw: bad)
        with pytest.raises(PrecisionError):
            taylor_jet(ReducedMap(3, 0.01), cross_check=True)

    def test_rejects_non_fixed_point(self):
        with pytest.raises(DomainError, match="not fixed"):
            taylor_jet(ShiftedMap(3, 0.01, 0.01, 0.0))

    def test_audit_constant_term_is_the_fixed_point(self):
        # both routes hold the map's value at the point in the constant term
        rmap = ReducedMap(5, 1e-3)
        for jet in (taylor_jet(rmap), fd_taylor_jet(rmap)):
            assert (jet.s.value, jet.r.value) == pytest.approx(rmap.fixed_point, abs=1e-12)

    def test_mirror_map_jet(self):
        # the mirror symmetry alone: linear part -identity, no higher terms
        s = Jet2.variable(0.0, 0)
        r = Jet2.variable(0.0, 1)
        jet = TaylorJet3(-s, -r)
        assert jet.linear() == ((-1.0, 0.0), (0.0, -1.0))
        assert jet.trace() == -2.0
        for side in jet:
            for key, c in zip(MONOMIALS, side.c):
                if sum(key) > 1:
                    assert c == 0.0


def make_jet(a_extra=None, b_extra=None, a10=0.0, a01=1.0, b10=-1.0, b01=0.0):
    a = {(1, 0): a10, (0, 1): a01} | (a_extra or {})
    b = {(1, 0): b10, (0, 1): b01} | (b_extra or {})
    return TaylorJet3(
        *(Jet2(tuple(side.get(k, 0.0) for k in MONOMIALS)) for side in (a, b))
    )


class TestCTerms:
    def test_pure_linear_gives_zero(self):
        assert c_terms(make_jet()) == (0.0, 0.0, 0.0)

    def test_single_quadratic_coefficient(self):
        a02 = 0.7
        a10, a01, b10 = 0.0, 1.0, -1.0
        jet = make_jet(a_extra={(0, 2): a02})
        im_c21, c20_sq, c02_sq = c_terms(jet)
        want = (1.0 / 16.0) * math.sqrt(-a01 / b10) * (b10 * a02 / a01) ** 2
        assert im_c21 == 0.0
        assert c20_sq == pytest.approx(want, abs=1e-15)
        assert c02_sq == pytest.approx(want, abs=1e-15)

    def test_sign_precondition(self):
        with pytest.raises(NonEllipticNormalizationError):
            c_terms(make_jet(a01=1.0, b10=1.0, a10=0.5, b01=0.5))


class TestTwistFormula:
    def test_c20_only_near_right_angle(self):
        mu = 1.47  # near pi/2 but safely off the 4-resonance
        # a rotation by mu with a20 = b11 = 2: Im c21 = |c02|^2 = 0, |c20|^2 = 1
        c, s = math.cos(mu), math.sin(mu)
        jet = make_jet(a_extra={(2, 0): 2.0}, b_extra={(1, 1): 2.0}, a10=c, a01=s, b10=-s, b01=c)
        assert jet.trace() == 2.0 * math.cos(1.47)
        assert c_terms(jet) == (0.0, 1.0, 0.0)
        rep = birkhoff_A(jet)
        assert rep.mu == pytest.approx(mu, rel=1e-15)
        want = 3.0 * math.sin(mu) / (math.cos(mu) - 1.0)
        assert rep.A == pytest.approx(want, rel=1e-14)

    def test_report_fields(self):
        jet = taylor_jet(ReducedMap(3, 0.01))
        rep = birkhoff_A(jet)
        assert isinstance(rep, BirkhoffReport) and rep._fields == ("A", "mu")
        assert rep.mu < 0.0 and rep.A > 0.0
        im_c21, c20_sq, c02_sq = c_terms(jet)
        assert c20_sq > 0.0 and c02_sq > 0.0

    def test_hyperbolic_rejected(self):
        eps = 2.0 * epsilon_star(4)
        rmap = ReducedMap(4, eps)
        jet = taylor_jet(rmap)
        assert abs(jet.trace()) > 2.0
        with pytest.raises(ClassificationError):
            birkhoff_A(jet)

    def test_resonance_guard(self):
        # tune the detuning so the reduced trace hits 2*cos(2*pi/3) = -1,
        # putting the eigenvalue exactly on the cube-root resonance
        lo, hi = 0.05, 0.1
        f = lambda e: taylor_jet(ReducedMap(3, e)).trace() + 1.0
        assert f(lo) < 0.0 < f(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        eps_res = 0.5 * (lo + hi)
        jet = taylor_jet(ReducedMap(3, eps_res))
        assert jet.trace() == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(ResonanceError):
            birkhoff_A(jet)


class TestTwistValues:
    def test_limit_value_n3(self):
        assert twist_limit(3) == pytest.approx(TWIST_LIMIT_N3, abs=1e-6)
        exact = -5 * (-2 + math.sqrt(3)) / (54 * (-1 + math.sqrt(3)))
        assert twist_limit(3) == pytest.approx(exact, rel=1e-12)

    def test_limit_approaches_asymptote(self):
        assert twist_limit(1000) == pytest.approx(TWIST_LIMIT_INF, abs=1e-3)
        assert closed_form_A_large_n(1000, 1e-3) * 1e-6 == pytest.approx(
            twist_limit(1000), rel=1e-4
        )

    def test_closed_form_scales_inverse_square(self):
        assert closed_form_A(7, 1e-3) == pytest.approx(twist_limit(7) * 1e6, rel=1e-12)
        with pytest.raises(DomainError):
            closed_form_A(2, 1e-3)

    @pytest.mark.parametrize("eps", [0.0, 1e-170, 1e-160])
    def test_closed_form_refuses_underflowing_eps(self, eps):
        # eps^2 underflows to 0 at 1e-170; at 1e-160 the quotient overflows
        with pytest.raises(DomainError):
            closed_form_A(3, eps)
        with pytest.raises(DomainError):
            closed_form_A_large_n(3, eps)

    def test_large_n_form_refuses_n_below_3(self):
        with pytest.raises(DomainError):
            closed_form_A_large_n(0, 1e-3)

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_pipeline_extrapolates_to_closed_form(self, n):
        ladder = scaled_ladder(n)
        vals = [e * e * birkhoff_A(taylor_jet(ReducedMap(n, e))).A for e in ladder]
        extrap = richardson(vals)
        assert extrap == pytest.approx(twist_limit(n), rel=2e-3)

    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_scaling_law_constancy(self, n):
        # eps^2 * A constant within 2% once the detuning sits deep inside
        # the stability window
        ladder = scaled_ladder(n, base=2.5e-5)
        vals = [e * e * birkhoff_A(taylor_jet(ReducedMap(n, e))).A for e in ladder]
        spread = (max(vals) - min(vals)) / abs(np.mean(vals))
        assert spread < 0.02, (n, vals)

    def test_twist_positive_on_scan_grid(self):
        for n in range(3, 60):
            assert twist_limit(n) > 0.0
        for n, eps in [(3, 1e-3), (4, 1e-3), (5, 1e-3), (10, 1e-4)]:
            rep = birkhoff_A(taylor_jet(ReducedMap(n, eps)))
            assert rep.A > 1e-6 / eps**2

    def test_conclusion_stable_under_detuning_perturbation(self):
        for n in (3, 5, 10):
            base = scaled_ladder(n)[0]
            signs = set()
            for fac in (0.9, 1.0, 1.1):
                rep = birkhoff_A(taylor_jet(ReducedMap(n, base * fac)))
                signs.add(math.copysign(1.0, rep.A))
            assert signs == {1.0}

    def test_limit_curve_decreases_to_asymptote(self):
        ns = np.unique(np.geomspace(3, 1000, 60).astype(int))
        vals = [twist_limit(int(n)) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(TWIST_LIMIT_INF, abs=1e-3)


class TestRotationNumber:
    def test_tends_to_zero(self):
        vals = [abs(birkhoff_A(taylor_jet(ReducedMap(3, e))).mu) for e in (1e-2, 1e-3, 1e-4)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.05

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_sqrt_scaling_matches_closed_form(self, n):
        base = min(1e-3, epsilon_star(n) / 500.0)
        ratios = []
        for eps in (base, base / 4):
            mu = birkhoff_A(taylor_jet(ReducedMap(n, eps))).mu
            coeff = rotation_number_leading(n, eps) / math.sqrt(eps)
            ratios.append(mu / math.sqrt(eps) / coeff)
        assert ratios[0] == pytest.approx(1.0, abs=1e-2)
        assert ratios[1] == pytest.approx(1.0, abs=1e-2)
        assert abs(ratios[0] - ratios[1]) < 1e-2

    def test_hyperbolic_rejected(self):
        # no rotation angle at 2 epsilon_star, where the orbit is hyperbolic
        for n in (7, 10):
            with pytest.raises(ClassificationError):
                birkhoff_A(taylor_jet(ReducedMap(n, 2.0 * epsilon_star(n))))


class TestIslandSampler:
    def test_zero_radius_stays_put(self):
        rep, _ = island_sampler(3, 0.02, 0.0, 100)
        assert rep.max_excursion < 1e-12
        assert not rep.escaped

    def test_zero_radius_iterates_every_seed_from_the_fixed_point(self):
        rep, cloud = island_sampler(3, 0.02, 0.0, 4, seeds=3)
        assert not rep.escaped
        assert len(cloud) == 12
        assert cloud[:4] == cloud[4:8] == cloud[8:]

    def test_bounded_cloud_in_elliptic_regime(self):
        rep, _ = island_sampler(3, 0.02, 1e-4, 10_000, seed=1)
        assert not rep.escaped
        assert rep.max_excursion <= 10.0 * 1e-4

    def test_divergence_in_hyperbolic_regime(self):
        eps = 2.0 * epsilon_star(4)
        rep, _ = island_sampler(4, eps, 1e-4, 1000, seed=1)
        assert rep.escaped or rep.max_excursion > 1e3 * 1e-4

    def test_collect_returns_cloud(self):
        rep, cloud = island_sampler(3, 0.02, 1e-4, 200, seeds=2)
        assert np.asarray(cloud).shape[1] == 2
        assert len(cloud) > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(iterations=0), dict(iterations=-1), dict(seeds=0), dict(seeds=-2),
            dict(radius=-1e-4), dict(seed=-1),
        ],
    )
    def test_bad_sizes_refused(self, kwargs):
        args = dict(n=3, epsilon=0.02, radius=1e-4, iterations=10) | kwargs
        with pytest.raises(DomainError):
            island_sampler(**args)

    @pytest.mark.parametrize("first", [-1, 4, 5])
    def test_first_seed_outside_the_ring_refused(self, first):
        with pytest.raises(DomainError, match=rf"need 0 <= first < seeds, got first = {first}, seeds = 4"):
            island_sampler(3, 0.02, 1e-4, 10, seeds=4, first=first)
        # no seeds at all keeps its own message
        with pytest.raises(DomainError, match=r"need iterations >= 1 and seeds >= 1, got 10, 0"):
            island_sampler(3, 0.02, 1e-4, 10, seeds=0, first=first)


def _reference_sampler(n, epsilon, radius, iterations, seeds=8, seed=0):
    """Each seed alone through the float full-period map until its first
    ``NoCollisionError``: the scalar reference for ``island_sampler``."""
    rmap = ReducedMap(n, epsilon)
    fp = np.array(rmap.fixed_point)
    rng = random.Random(seed)
    phases = [2.0 * math.pi * rng.random() for _ in range(seeds)]
    max_exc, escape, cloud = 0.0, None, []
    for si, phase in enumerate(phases):
        z = fp + radius * np.array([math.cos(phase), math.sin(phase)])
        for it in range(iterations):
            try:
                z = np.array(half_period_formula(*half_period_formula(*z, n, rmap.R), n, rmap.R))
            except NoCollisionError:
                if escape is None:
                    escape = (si, it)
                break
            max_exc = max(max_exc, float(np.hypot(*(z - fp))))
            cloud.append(z)
    esc_seed, esc_iter = escape or (None, None)
    report = IslandReport(
        max_excursion=max_exc,
        escaped=escape is not None,
        escape_seed=esc_seed,
        escape_iteration=esc_iter,
    )
    return report, np.array(cloud).reshape(-1, 2)


class TestSamplerMatchesSeedBySeedReference:
    @pytest.mark.parametrize(
        "args,kwargs,escapes",
        [
            ((3, 0.02, 1e-4, 500), dict(seeds=8, seed=1), False),
            ((3, 0.02, 0.1, 50), dict(seeds=8), True),
            ((6, 0.002, 0.05, 300), dict(seeds=16), True),
            ((3, 0.02, 0.0, 100), dict(), False),
            # every seed leaves the chart within a few hundred iterations
            ((3, 0.02, 0.5, 10_000), dict(seeds=8), True),
            ((6, 0.002, 0.2, 10_000), dict(seeds=16), True),
            ((3, 0.02, 0.15, 10_000), dict(seeds=8, seed=4), True),
            ((3, 0.02, 2.0, 10_000), dict(seeds=3, seed=5), True),
        ],
    )
    def test_sampler_identical_to_seed_by_seed_floats(self, args, kwargs, escapes):
        ref_report, ref_cloud = _reference_sampler(*args, **kwargs)
        report, cloud = island_sampler(*args, **kwargs)
        assert report.escaped is escapes
        assert report == ref_report
        # the cloud is a seed-major list of (s, r) pairs, empty when every
        # seed escapes in its first iteration
        assert cloud == [tuple(z) for z in ref_cloud.tolist()]

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((3, 0.02, 0.5, 10_000), dict(seeds=8)),
            ((3, 0.02, 0.15, 10_000), dict(seeds=8, seed=4)),
            ((6, 0.002, 0.2, 10_000), dict(seeds=16)),
            ((3, 0.02, 2.0, 10_000), dict(seeds=3, seed=5)),
        ],
    )
    def test_sampler_stops_once_every_seed_left_the_chart(self, monkeypatch, args, kwargs):
        # every seed escapes, and each stops at its escape: two map calls on
        # `math` per kept iterate, then one or two for the escaping iteration
        # (a seed can leave the chart in either half period), not 2 * 10_000
        # a seed; every call is on `math`
        calls = []
        original = birkhoff.half_period_formula

        def counted(*a):
            calls.append(a[-1])
            return original(*a)

        monkeypatch.setattr(birkhoff, "half_period_formula", counted)
        report, cloud = island_sampler(*args, **kwargs)
        assert report.escaped
        escaped = kwargs["seeds"]
        on_math = calls.count(math)
        assert 2 * len(cloud) + escaped <= on_math <= 2 * len(cloud) + 2 * escaped
        assert on_math == len(calls)

    def test_acos_clamps_rounding_and_refuses_the_rest(self):
        u = np.random.default_rng(0).uniform(-1.0, 1.0, 100_000).tolist() + [-1.0, 1.0]
        assert [FLOAT_BACKEND.acos(x) for x in u] == [math.acos(x) for x in u]
        # an argument even 5e-11 past -1 or 1 means a missed wall, and is
        # refused like a larger one
        for x in (1.0 + 5e-11, -1.0 - 5e-11, 1.0 + 2e-10, -1.0 - 2e-10):
            with pytest.raises(NoCollisionError):
                FLOAT_BACKEND.acos(x)


# ---------------------------------------------------------------------------
# the unrolled jet push against the former per-point route
# ---------------------------------------------------------------------------


def _former_mul(self, other):
    """``Jet2.__mul__`` as it was: a Python loop over the product table."""
    if not isinstance(other, Jet2):
        return Jet2(tuple((np.array(self.c) * other).tolist()))
    out = np.zeros(len(MONOMIALS))
    a, b = self.c, other.c
    for ia, ib, io in _MUL_TABLE:
        out[io] += a[ia] * b[ib]
    return Jet2(tuple(out.tolist()))


def _former_compose(x, f0, f1, f2, f3):
    h = Jet2((0.0,) + x.c[1:])
    h2 = _former_mul(h, h)
    h3 = _former_mul(h2, h)
    return f0 + f1 * h + (f2 / 2.0) * h2 + (f3 / 6.0) * h3


class _FormerJetBackend:
    """Unbatched jet math on Python floats, as before the batch axis."""

    @staticmethod
    def cos(x):
        s, c = math.sin(x.value), math.cos(x.value)
        return _former_compose(x, c, -s, -c, s)

    @staticmethod
    def acos(x):
        u = x.value
        if not -1.0 < u < 1.0:
            raise ValueError("jet_acos needs |constant term| < 1")
        w = 1.0 - u * u
        return _former_compose(
            x, math.acos(u), -w**-0.5, -u * w**-1.5, -(1.0 + 2.0 * u * u) * w**-2.5
        )


def _former_taylor_jet(rmap):
    """``taylor_jet`` as it was: one push per point through the former route."""
    fp = rmap.fixed_point
    s_out, r_out = half_period_formula(
        Jet2.variable(fp.s, 0), Jet2.variable(fp.r, 1), rmap.n, rmap.R, _FormerJetBackend
    )
    residual = max(abs(s_out.value - fp.s), abs(r_out.value - fp.r))
    if residual > 1e-9:
        raise DomainError(f"point is not fixed (residual {residual:.3g})")
    return TaylorJet3(s_out, r_out)


def _bits(jet: TaylorJet3) -> bytes:
    """All 20 coefficients, constant terms included."""
    return np.array(jet.s.c + jet.r.c).tobytes()


def _use_former_products(monkeypatch):
    """Route every product of two jets through the former loop."""
    monkeypatch.setattr(Jet2, "__mul__", _former_mul)
    monkeypatch.setattr(Jet2, "__rmul__", _former_mul)


class TestPushMatchesFormerRoute:
    @pytest.mark.parametrize("seed", [0, 1, 7, 64])
    def test_random_jets_bit_equal(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, 16, 10))
        a[:, 0] = rng.uniform(-0.95, 0.95, size=16)  # inside the arccos domain
        # signed zeros must survive as before, in the products and in the
        # powers of the displacement that a composition forms
        a[:, 4], b[:, 7], a[::2, 1], a[1::2, 5] = -0.0, 0.0, -0.0, 0.0
        b[:4, 0] = 0.0, -0.0, 0.0, -0.0
        pairs = [(Jet2(tuple(x.tolist())), Jet2(tuple(y.tolist()))) for x, y in zip(a, b)]
        ops = {
            "mul": lambda x, y: x * y,
            "scale": lambda x, y: 0.37 * x,
            "difference": lambda x, y: (x - y) - 0.25 + (0.5 - x),
            "cos": lambda x, y: jet_cos(x),
            "cos of b": lambda x, y: jet_cos(y),
            "acos": lambda x, y: jet_acos(x),
            "quotient": lambda x, y: x / 0.37,
        }
        got = [{key: op(x, y) for key, op in ops.items()} for x, y in pairs]
        _use_former_products(monkeypatch)
        for (x, y), jets in zip(pairs, got):
            want = {
                "mul": _former_mul(x, y),
                "scale": 0.37 * x,
                "difference": (x + (-y)) + (-0.25) + ((-x) + 0.5),
                "cos": _FormerJetBackend.cos(x),
                "cos of b": _FormerJetBackend.cos(y),
                "acos": _FormerJetBackend.acos(x),
                "quotient": Jet2(tuple((np.array(x.c) / 0.37).tolist())),
            }
            for key, jet in jets.items():
                assert all(type(v) is float for v in jet.c) and len(jet.c) == 10
                assert np.array(jet.c).tobytes() == np.array(want[key].c).tobytes(), key

    def test_grid_with_skips_bit_equal_to_former_pushes(self, monkeypatch):
        grid = [(n, eps) for n in (2, 3, 4, 5, 7, 12, 20) for eps in (1e-4, 3e-3, 0.3, 1.2, 2.9, 2.95)]
        rmaps, refused = [], {}
        for n, eps in grid:
            try:
                rmaps.append(ReducedMap(n, eps))
            except (DomainError, SingularConfigurationError, InvalidTableError) as exc:
                refused[(n, eps)] = exc  # refused before any push, as in the scan
        assert all(type(refused[(3, eps)]) is DomainError for eps in (2.9, 2.95))
        # a disk chord of the fixed point meets the scatterer; build_type_b
        # refuses these tables too
        off_chart = [point for point, exc in refused.items() if type(exc) is InvalidTableError]
        assert off_chart == [(3, 0.3), (7, 1.2), (20, 0.3), (20, 1.2)]
        # points the push refuses, amid the others: not fixed, and off the
        # arccos domain
        rmaps[3:3] = [ShiftedMap(3, 0.01, 0.01, 0.0)]
        rmaps[9:9] = [ShiftedMap(5, 1e-3, 0.0, 2.0), ShiftedMap(7, 3e-3, 0.0, -1.5)]
        pushed = []
        for rmap in rmaps:
            try:
                pushed.append(taylor_jet(rmap))
            except BilliardError as exc:
                pushed.append(exc)
        _use_former_products(monkeypatch)
        kinds = set()
        for rmap, got in zip(rmaps, pushed, strict=True):
            try:
                want = _former_taylor_jet(rmap)
            except DomainError as exc:
                kinds.add("not fixed")
                assert type(got) is DomainError and str(got) == str(exc)
            except ValueError:
                # the former push stopped here; taylor_jet refuses the point
                kinds.add("off domain")
                assert type(got) is NoCollisionError, (rmap.n, rmap.epsilon)
                assert str(got) == "an arccos argument of the jet push leaves (-1, 1)"
            else:
                kinds.add("jet")
                assert isinstance(got, TaylorJet3), (rmap.n, rmap.epsilon, got)
                assert _bits(got) == _bits(want), (rmap.n, rmap.epsilon)
        assert kinds == {"jet", "not fixed", "off domain"}
        assert len(rmaps) - 3 < len(grid)  # some points never reach the push

    def test_single_map_refusals(self):
        with pytest.raises(DomainError, match=r"pi - pi/n"):
            ReducedMap(3, 2.9)
        with pytest.raises(NoCollisionError, match=r"leaves \(-1, 1\)"):
            taylor_jet(ShiftedMap(3, 0.01, 0.0, 2.0))


# ---------------------------------------------------------------------------
# the jet pair against the former dict-based Taylor data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DictTaylorJet3:
    """``TaylorJet3`` as it was: the 18 non-constant coefficients copied out of
    the pushed jets into two (i, j)-keyed dicts."""

    a: dict
    b: dict

    def trace(self) -> float:
        return self.a[(1, 0)] + self.b[(0, 1)]

    @staticmethod
    def from_jets(s_jet: Jet2, r_jet: Jet2) -> "_DictTaylorJet3":
        keys = MONOMIALS[1:]
        return _DictTaylorJet3(
            a=dict(zip(keys, s_jet.c[1:])), b=dict(zip(keys, r_jet.c[1:]))
        )


def _dict_c_terms(jet: _DictTaylorJet3) -> tuple[float, float, float]:
    """``c_terms`` as it was, reading the dicts."""
    a, b = jet.a, jet.b
    a10, a01 = a[(1, 0)], a[(0, 1)]
    b10 = b[(1, 0)]
    if not a01 * b10 < 0.0:
        raise NonEllipticNormalizationError(
            f"need a01*b10 < 0, got a01={a01!r}, b10={b10!r}"
        )
    im_c21 = (
        a10
        * (
            -a[(1, 2)]
            + 3.0 * b10 * a[(0, 3)] / a01
            - 3.0 * a01 * b[(3, 0)] / b10
            + b[(1, 2)]
        )
        - b10
        * (
            a[(1, 2)]
            - 3.0 * a01 * a[(3, 0)] / b10
            - a01 * b[(2, 1)] / b10
            + 3.0 * b[(0, 3)]
        )
    ) / 8.0
    sq_ab = math.sqrt(-a01 / b10)
    sq_ba = math.sqrt(-b10 / a01)
    plus_a = (b10 / a01) * a[(0, 2)] + a[(2, 0)] + b[(1, 1)]
    plus_b = (a01 / b10) * b[(2, 0)] + b[(0, 2)] + a[(1, 1)]
    minus_a = (b10 / a01) * a[(0, 2)] + a[(2, 0)] - b[(1, 1)]
    minus_b = (a01 / b10) * b[(2, 0)] + b[(0, 2)] - a[(1, 1)]
    abs_c20_sq = (sq_ab * plus_a**2 + sq_ba * plus_b**2) / 16.0
    abs_c02_sq = (sq_ab * minus_a**2 + sq_ba * minus_b**2) / 16.0
    return im_c21, abs_c20_sq, abs_c02_sq


def _report_or_refusal(jet):
    try:
        return repr(birkhoff_A(jet))
    except (ClassificationError, ResonanceError, NonEllipticNormalizationError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestJetPairMatchesDictRoute:
    def test_twist_reports_bit_equal_on_a_twist_grid(self, monkeypatch):
        import annular_billiards.birkhoff as bk

        # detuning ladders inside the elliptic window, as a twist scan has
        # them, plus points past it that birkhoff_A refuses, or that are
        # refused at construction: at n = 3 a disk chord of the fixed point
        # meets the scatterer from 0.96 epsilon* up
        rmaps, off_chart = [], []
        for n in range(3, 21):
            for f in [0.05 * 0.5**i for i in range(8)] + [0.5, 1.2, 2.0]:
                try:
                    rmaps.append(ReducedMap(n, epsilon_star(n) * f))
                except InvalidTableError:
                    off_chart.append((n, f))
        assert off_chart == [(3, 1.2), (3, 2.0)]
        jets = [taylor_jet(rmap) for rmap in rmaps]
        assert all(isinstance(jet, TaylorJet3) for jet in jets)
        got = [_report_or_refusal(jet) for jet in jets]
        monkeypatch.setattr(bk, "c_terms", _dict_c_terms)
        want = [_report_or_refusal(_DictTaylorJet3.from_jets(*jet)) for jet in jets]
        assert got == want
        assert sum(text.startswith("BirkhoffReport(") for text in got) >= 8 * 18
        assert any(text.startswith("ClassificationError") for text in got)
        for jet in jets:
            assert jet.trace() == _DictTaylorJet3.from_jets(*jet).trace()
