"""Phase-space conventions, the Cartesian ray tracer, and the half-period map
against the three-leg composition it was written from."""

import math
import random
import struct
import warnings
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from annular_billiards.billiard_map import (
    FLOAT_BACKEND,
    JET_BACKEND,
    half_period_formula,
)
from annular_billiards.errors import (
    BilliardError,
    GrazingError,
    NoCollisionError,
    TangencyWarning,
)
from annular_billiards.birkhoff import FD_DPS, FD_STEP, ReducedMap
from annular_billiards.geometry import TableParams, max_radius
from annular_billiards.jets import Jet2
from annular_billiards.linear_stability import bounce_jacobian
from annular_billiards.orbits import (
    MIN_FLIGHT,
    PhasePoint,
    Wall,
    build_type_a,
    build_type_b,
    generic_step,
    phase_to_cartesian,
    reflection,
    wrap_pi,
)


def fd_jacobian(step, p: PhasePoint, h=1e-7, outer_out=True):
    """Finite-difference Jacobian of a phase map in (s, theta)."""
    J = np.zeros((2, 2))
    for col, (ds, dth) in enumerate(((h, 0.0), (0.0, h))):
        plus = step(PhasePoint(p.wall, p.s + ds, p.theta + dth))
        minus = step(PhasePoint(p.wall, p.s - ds, p.theta - dth))
        d0 = plus.s - minus.s
        if outer_out:
            d0 = wrap_pi(d0)
        J[0, col] = d0 / (2 * h)
        J[1, col] = (plus.theta - minus.theta) / (2 * h)
    return J


class TestScattererMaps:
    @pytest.fixture()
    def tangent_table(self):
        orbit = build_type_b(3, 0.01)
        return orbit

    def test_symmetric_entry_is_perpendicular(self):
        # symmetric chord-mounted scatterer: normal incidence at the hit
        params = TableParams.type_a(4, 1, 0.2, 0.0)
        orbit = build_type_a(params)
        z = orbit.points[3]
        # the tangent-pose closed form only covers the tangent table, so use
        # the ray tracer for the general pose
        res = generic_step(z, orbit.pose)
        assert res.point.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_tangent_map_matches_bounce_jacobian(self, tangent_table):
        # finite differences of the maps equal the per-bounce matrix up to
        # conjugation by T = diag(1, -1)
        T = np.diag([1.0, -1.0])
        orbit = tangent_table
        pose = orbit.pose
        m = orbit.period
        for i in (1, 2, 3):
            z = orbit.points[i]
            z1 = orbit.points[(i + 1) % m]
            J_formula = bounce_jacobian(
                orbit.flights[i],
                orbit.curvatures[i],
                orbit.curvatures[(i + 1) % m],
                z.theta,
                z1.theta,
            )
            J_true = fd_jacobian(
                lambda p: generic_step(p, pose).point,
                z,
                outer_out=z1.wall is Wall.OUTER,
            )
            assert np.allclose(J_formula, T @ J_true @ T, atol=1e-6)


class TestReflection:
    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = PhasePoint(Wall.OUTER, rng.uniform(-math.pi, math.pi), rng.uniform(0.1, 3.0))
            q = reflection(reflection(p))
            assert wrap_pi(q.s - p.s) == pytest.approx(0.0, abs=1e-14)
            assert q.theta == pytest.approx(p.theta, abs=1e-14)

    def test_axis_fixed_point(self):
        p = PhasePoint(Wall.OUTER, 0.0, math.pi / 2)
        q = reflection(p)
        assert q.s == pytest.approx(0.0, abs=1e-15)
        assert q.theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_birkhoff_form(self):
        # on the outer wall the mirror is (s, r) -> (-s, -r) in r = cos theta
        q = reflection(PhasePoint(Wall.OUTER, 0.7, math.acos(-0.3)))
        assert q.s == pytest.approx(-0.7, abs=1e-15)
        assert math.cos(q.theta) == pytest.approx(0.3, abs=1e-15)

    def test_commutes_with_dynamics_on_symmetric_table(self):
        # mirror symmetry of the table: reflecting then stepping equals
        # stepping then reflecting
        orbit = build_type_b(4, 0.01)
        pose = orbit.pose
        rng = np.random.default_rng(6)
        base = orbit.points[0]
        count = 0
        for _ in range(100):
            p = PhasePoint(
                Wall.OUTER,
                base.s + rng.normal(scale=0.05),
                base.theta + rng.normal(scale=0.05),
            )
            a = generic_step(reflection(p), pose).point
            b = reflection(generic_step(p, pose).point)
            assert a.wall is b.wall
            ds = wrap_pi(a.s - b.s) if a.wall is Wall.OUTER else a.s - b.s
            assert ds == pytest.approx(0.0, abs=1e-10)
            assert a.theta == pytest.approx(b.theta, abs=1e-10)
            count += 1
        assert count == 100

    def test_mirror_of_inner_points(self):
        # spatial reflection maps the inner chart point to its mirror image
        orbit = build_type_b(3, 0.02)
        z = orbit.points[3]
        m = reflection(z)
        pos = phase_to_cartesian(z, orbit.pose)[:2]
        mpos = phase_to_cartesian(m, orbit.pose)[:2]
        assert mpos[0] == pytest.approx(pos[0], abs=1e-12)
        assert mpos[1] == pytest.approx(-pos[1], abs=1e-12)


class TestBirkhoffCoords:
    def test_normal_incidence(self):
        # r = cos theta = 0: the ray runs along a diameter and comes back
        p = PhasePoint(Wall.OUTER, 0.3, math.pi / 2)
        there = generic_step(p, None)
        assert there.flight == pytest.approx(2.0, abs=1e-15)
        assert wrap_pi(there.point.s - p.s - math.pi) == pytest.approx(0.0, abs=1e-15)
        back = generic_step(there.point, None).point
        assert wrap_pi(back.s - p.s) == pytest.approx(0.0, abs=1e-15)
        assert math.cos(back.theta) == pytest.approx(0.0, abs=1e-16)

    def test_round_trip(self):
        # time reversal in (s, r): step, flip r, step again, and the start
        # comes back with r flipped, through either wall
        orbit = build_type_b(4, 0.01)
        rng = np.random.default_rng(8)
        worst = 0.0
        legs = set()
        for _ in range(300):
            base = orbit.points[rng.integers(len(orbit.points))]
            p = PhasePoint(base.wall, base.s + rng.normal(scale=0.02), base.theta + rng.normal(scale=0.02))
            q = generic_step(p, orbit.pose).point
            back = generic_step(PhasePoint(q.wall, q.s, math.pi - q.theta), orbit.pose).point
            assert back.wall is p.wall
            ds = wrap_pi(back.s - p.s) if p.wall is Wall.OUTER else back.s - p.s
            worst = max(worst, abs(ds), abs(math.cos(back.theta) + math.cos(p.theta)))
            legs.add((p.wall, q.wall))
        assert worst < 1e-13
        assert legs == {(Wall.OUTER, Wall.OUTER), (Wall.OUTER, Wall.INNER), (Wall.INNER, Wall.OUTER)}

    def test_domain_guard(self):
        # an r = cos theta off [-1, 1] is refused
        rmap = ReducedMap(3, 0.01)
        with pytest.raises(NoCollisionError):
            half_period_formula(rmap.s0, 1.5, 3, rmap.R)
        with pytest.raises(NoCollisionError):
            half_period_formula(rmap.s0, -1.0 - 1e-7, 3, rmap.R)

    def test_composed_map_area_preservation(self):
        # finite-difference determinant of the half-period map in (s, r)
        rm_params = (4, 0.01)
        rmap = ReducedMap(*rm_params)
        fp = rmap.fixed_point
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(200):
            s = fp.s + rng.normal(scale=0.01)
            r = fp.r + rng.normal(scale=0.01)
            J = np.zeros((2, 2))
            for col, (ds, dr) in enumerate(((h, 0.0), (0.0, h))):
                sp, rp = half_period_formula(s + ds, r + dr, rmap.n, rmap.R)
                sm, rm = half_period_formula(s - ds, r - dr, rmap.n, rmap.R)
                J[0, col] = (sp - sm) / (2 * h)
                J[1, col] = (rp - rm) / (2 * h)
            assert abs(np.linalg.det(J) - 1.0) < 1e-8


class TestGenericStep:
    def test_disk_only_advance(self):
        p = PhasePoint(Wall.OUTER, -1.0, 0.9)
        res = generic_step(p, None)
        assert wrap_pi(res.point.s - (p.s + 2 * p.theta)) == pytest.approx(0.0, abs=1e-12)
        assert res.point.theta == pytest.approx(p.theta, abs=1e-12)
        assert res.flight == pytest.approx(2 * math.sin(p.theta), abs=1e-12)

    def test_flight_lengths_type_a(self):
        params = TableParams.type_a(5, 2, 0.05, 0.01)
        orbit = build_type_a(params)
        side = 2 * math.sin(2 * math.pi / 5)
        res = generic_step(orbit.points[0], orbit.pose)
        assert res.flight == pytest.approx(side, abs=1e-12)
        res_in = generic_step(orbit.points[4], orbit.pose)
        assert res_in.flight == pytest.approx(
            math.sin(2 * math.pi / 5) - 0.05 - 0.01, abs=1e-12
        )

    def test_no_walls_hit(self):
        # an inner state pointing outward always reaches the outer wall, so
        # force the degenerate case with a ray from the rim pointing outward
        p = PhasePoint(Wall.OUTER, 0.0, math.pi - 1e-9)
        res = generic_step(p, None)
        assert res.point.wall is Wall.OUTER

    def test_grazing_contact_warns_and_skips(self):
        from annular_billiards.orbits import _ray_circle_time
        from annular_billiards.errors import TangencyWarning

        R = 0.2
        h = math.sqrt(R * R - 5e-15)
        # a ray from the origin along +x passes the circle about (2, h) at
        # distance h, just inside its radius
        with pytest.warns(TangencyWarning):
            t = _ray_circle_time(0.0, 0.0, 1.0, 0.0, 2.0, h, R)
        assert t == math.inf


def _vector_step(p: PhasePoint, pose):
    """The former NumPy-vector ray tracer, kept as the reference for the
    plain-float ``generic_step``."""

    def launch(p):
        if p.wall is Wall.OUTER:
            ang = p.s + p.theta
            return np.array([math.cos(p.s), math.sin(p.s)]), np.array([-math.sin(ang), math.cos(ang)])
        R = pose.radius
        gamma = math.pi - (p.s - math.pi) / R
        pos = pose.center + R * np.array([math.cos(gamma), math.sin(gamma)])
        ang = gamma + p.theta
        return pos, np.array([math.sin(ang), -math.cos(ang)])

    def times(pos, vel, center, radius):
        d = pos - center
        b = float(np.dot(vel, d))
        c = float(np.dot(d, d)) - radius * radius
        disc = b * b - c
        if disc < 0.0:
            return []
        if disc < 1e-14 and c > MIN_FLIGHT:
            warnings.warn("tangential ray-circle contact skipped", TangencyWarning)
            return []
        sq = math.sqrt(disc)
        return [t for t in (-b - sq, -b + sq) if t > MIN_FLIGHT]

    pos, vel = launch(p)
    candidates = [(t, Wall.OUTER) for t in times(pos, vel, np.zeros(2), 1.0)]
    if pose is not None:
        candidates += [(t, Wall.INNER) for t in times(pos, vel, pose.center, pose.radius)]
    if not candidates:
        raise NoCollisionError("ray escapes both walls")
    t, wall = min(candidates)
    hit = pos + t * vel
    if wall is Wall.OUTER:
        s1 = math.atan2(hit[1], hit[0])
        n_in = -hit
        tan = np.array([-hit[1], hit[0]])
    else:
        rel = (hit - pose.center) / pose.radius
        gamma = math.atan2(rel[1], rel[0]) % (2.0 * math.pi)
        s1 = math.pi + pose.radius * (math.pi - gamma)
        n_in = rel
        tan = np.array([rel[1], -rel[0]])
    w = vel - 2.0 * float(np.dot(vel, n_in)) * n_in
    theta1 = math.atan2(float(np.dot(w, n_in)), float(np.dot(w, tan)))
    if not 0.0 < theta1 < math.pi:
        raise GrazingError(f"degenerate reflection angle {theta1!r}")
    return PhasePoint(wall, s1, theta1), float(t)


def _tracer_tables():
    """(pose, orbit states) of type (a) tables for k = 1..6, tangent type (b)
    tables and the scatterer-free disk."""
    out = []
    for n, k in ((5, 1), (5, 2), (10, 3), (13, 4), (21, 5), (53, 6)):
        for delta_frac in (0.0, 0.05):
            delta = delta_frac * max_radius(n, k, 0.0)
            orbit = build_type_a(TableParams.type_a(n, k, 0.5 * max_radius(n, k, delta), delta))
            out.append((orbit.pose, orbit.points))
    for n, eps in ((3, 0.01), (6, 0.002)):
        orbit = build_type_b(n, eps)
        out.append((orbit.pose, orbit.points))
    out.append((None, ()))
    return out


def _outcome(step, p, pose):
    """(result or exception type, number of tangency warnings) of one step."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = step(p, pose)
        except BilliardError as exc:
            result = type(exc)
    return result, sum(issubclass(w.category, TangencyWarning) for w in caught)


class TestPlainFloatTracerMatchesVectorTracer:
    def test_steps_agree_on_random_and_orbit_states(self):
        rng = np.random.default_rng(7)
        seen = {"launch": set(), "hit": set(), "refused": 0}
        compared = 0
        for pose, orbit_states in _tracer_tables():
            states = list(orbit_states)
            states += [PhasePoint(Wall.OUTER, s, th) for s, th in zip(
                rng.uniform(-math.pi, math.pi, 80).tolist(),
                rng.uniform(1e-3, math.pi - 1e-3, 80).tolist(),
            )]
            # from (1, 0) exactly, a flight shorter than MIN_FLIGHT finds no wall
            states += [PhasePoint(Wall.OUTER, 0.0, 1e-13), PhasePoint(Wall.OUTER, 0.0, math.pi - 1e-13)]
            if pose is not None:
                R = pose.radius
                states += [PhasePoint(Wall.INNER, math.pi + R * (math.pi - g), th) for g, th in zip(
                    rng.uniform(0.0, 2.0 * math.pi, 80).tolist(),
                    rng.uniform(1e-3, math.pi - 1e-3, 80).tolist(),
                )]
            for p in states:
                got, got_warned = _outcome(generic_step, p, pose)
                want, want_warned = _outcome(_vector_step, p, pose)
                assert got_warned == want_warned, p
                compared += 1
                seen["launch"].add(p.wall)
                if isinstance(want, type) or isinstance(got, type):
                    assert got is want, p
                    seen["refused"] += 1
                    continue
                (a, flight), (b, ref_flight) = got, want
                assert a.wall is b.wall, p
                # arriving on a circle of radius r, rounding grows like
                # 1 / (r^2 sin theta1): b*b - c cancels to O(r^2 sin^2 theta1)
                # and the normal is divided by r
                r = 1.0 if a.wall is Wall.OUTER else pose.radius
                tol = 1e-13 + 2e-15 / (r * r * math.sin(b.theta))
                ds = wrap_pi(a.s - b.s) if a.wall is Wall.OUTER else a.s - b.s
                assert abs(ds) <= tol, p
                assert abs(a.theta - b.theta) <= tol, p
                assert abs(flight - ref_flight) <= tol, p
                seen["hit"].add(a.wall)
        assert compared >= 1000
        assert seen["launch"] == seen["hit"] == {Wall.OUTER, Wall.INNER}
        assert seen["refused"] > 0


# ---------------------------------------------------------------------------
# the straight-line half-period map against the former three-leg composition
# ---------------------------------------------------------------------------


#: the rounding excess past -1 or 1 that ``FloatBackend.acos`` once clamped
_FORMER_CLAMP = 1e-10


def _former_acos(u):
    """``FloatBackend.acos`` as it was: the clamp's comparisons first."""
    if u > 1.0:
        if u - 1.0 > _FORMER_CLAMP:
            raise NoCollisionError(f"arccos argument {u!r} exceeds 1")
        u = 1.0
    elif u < -1.0:
        if -1.0 - u > _FORMER_CLAMP:
            raise NoCollisionError(f"arccos argument {u!r} below -1")
        u = -1.0
    return math.acos(u)


class _FormerFloatBackend:
    pi = math.pi
    cos = staticmethod(math.cos)
    acos = staticmethod(_former_acos)


def _disk_leg(s, theta, bounces, lib):
    return s + 2.0 * bounces * theta, theta


def _entry_leg(s, theta, R, lib):
    u = (-lib.cos(theta) - (1.0 - R) * lib.cos(theta + s)) / R
    theta1 = lib.acos(u)
    return lib.pi + R * (2.0 * lib.pi - theta1 - theta - s), theta1


def _exit_leg(s, theta, R, lib):
    a = (s - lib.pi) / R
    w = -R * lib.cos(theta) - (1.0 - R) * lib.cos(theta - a)
    theta1 = lib.acos(w)
    return theta + theta1 - a, theta1


def _three_leg_half_period(s, r, n, R, lib):
    """The half-period map composed of its three legs, as it was written:
    the bit-for-bit reference for the straight-line ``half_period_formula``."""
    theta = lib.acos(r)
    s1, theta1 = _disk_leg(s, theta, n - 1, lib)
    s2, theta2 = _entry_leg(s1, theta1, R, lib)
    s3, theta3 = _exit_leg(s2, theta2, R, lib)
    return -s3, -lib.cos(theta3)


def _with_pi(lib, pi=math.pi):
    """``lib``'s ``cos`` and ``acos`` with the ``pi`` that the three legs
    read; ``half_period_formula`` reads no ``pi`` from its backend."""
    return SimpleNamespace(pi=pi, cos=lib.cos, acos=lib.acos)


def _float_outcome(fn, *args):
    """The map's two outputs as bytes, or its refusal's type and text."""
    try:
        return struct.pack("<2d", *fn(*args))
    except BilliardError as exc:
        return type(exc), str(exc)


#: tangent tables of the twist and section scans
_TABLES = [(3, 0.01), (3, 0.02), (4, 0.01), (5, 0.002), (7, 1e-3), (12, 1e-4)]

#: arguments at and about the ends of the arccos domain: inside and past
#: each end by half the former clamp, and past it by twice that
_EDGES = [
    1.0 + 5e-11, 1.0 - 5e-11, -1.0 + 5e-11, -1.0 - 5e-11,
    1.0, -1.0, 1.0 + 2e-10, -1.0 - 2e-10, math.nan,
]


def _seeded_points():
    """Map arguments (s, r, n, R) about each table's fixed point, at offsets
    from 1e-6 to 0.3: the wide ones leave the chart."""
    rng = random.Random(17)
    for n, eps in _TABLES:
        rmap = ReducedMap(n, eps)
        for scale in (1e-6, 1e-3, 3e-2, 0.3):
            for _ in range(250):
                yield rmap.s0 + rng.gauss(0.0, scale), rmap.r0 + rng.gauss(0.0, scale), n, rmap.R


def _edge_points():
    """Map arguments (s, r, 3, R) with r at the arccos edges; a grazing ray
    from near (-1, 0), where the scatterer touches the wall, takes the entry
    and exit arccos to their edges too, and comes out with values."""
    for r in _EDGES:
        for s in (-2.0, 0.0, 1.0, 3.0, math.pi - 1e-6, math.pi):
            for R in (ReducedMap(3, 0.01).R, 0.1, 0.3):
                yield s, r, 3, R


class _ClampWatch:
    """``FLOAT_BACKEND`` that notes an arccos argument off [-1, 1] (NaN is
    not off it: it passes through)."""

    cos = staticmethod(math.cos)

    def __init__(self):
        self.off = False

    def acos(self, u):
        self.off |= u > 1.0 or u < -1.0
        return FLOAT_BACKEND.acos(u)


class TestHalfPeriodFormulaMatchesThreeLegs:
    def test_floats_bit_equal_over_seeded_points(self):
        refused = 0
        for point in _seeded_points():
            got = _float_outcome(half_period_formula, *point)
            want = _float_outcome(_three_leg_half_period, *point, _FormerFloatBackend)
            assert got == want, point
            refused += isinstance(want, tuple)
        # the wide offsets leave the chart, so refusals are compared too
        assert refused > 100

    def test_floats_bit_equal_at_the_clamp_edges(self):
        # about the ends of the arccos domain FLOAT_BACKEND gives `math`'s
        # value bits exactly where `math` gives a value, and refuses with
        # NoCollisionError exactly where `math` raises ValueError: no
        # argument past -1 or 1 is taken for a grazing hit
        outcomes = {"values": 0, "refused": 0}
        for point in _edge_points():
            got = _float_outcome(half_period_formula, *point)
            try:
                want = _float_outcome(half_period_formula, *point, math)
            except ValueError:
                assert got[0] is NoCollisionError, point
                outcomes["refused"] += 1
            else:
                assert got == want, point
                outcomes["values"] += 1
        assert outcomes["values"] >= 12 and outcomes["refused"] >= 12, outcomes
        # and into the acos itself, where NaN still passes through as NaN
        for u in _EDGES:
            got = _float_outcome(lambda x: (FLOAT_BACKEND.acos(x), 0.0), u)
            if -1.0 <= u <= 1.0 or math.isnan(u):
                assert got == struct.pack("<2d", math.acos(u), 0.0), u
            else:
                side = "exceeds 1" if u > 1.0 else "below -1"
                assert got == (NoCollisionError, f"arccos argument {u!r} {side}"), u

    def test_math_then_float_retry_bit_equal_to_float(self):
        # the island sampler evaluates each half period on `math` alone, and
        # takes its ValueError for an escape: `math` raises exactly where
        # FLOAT_BACKEND refuses, so no point is clamped to a value
        outcomes = {"math": 0, "clamped": 0, "refused": 0}
        for point in chain(_seeded_points(), _edge_points()):
            want = _float_outcome(half_period_formula, *point, FLOAT_BACKEND)
            watch = _ClampWatch()
            _float_outcome(half_period_formula, *point, watch)
            try:
                got = _float_outcome(half_period_formula, *point, math)
            except ValueError:
                assert watch.off, point
                got = _float_outcome(half_period_formula, *point, FLOAT_BACKEND)
                outcomes["refused" if isinstance(got, tuple) else "clamped"] += 1
            else:
                assert not watch.off, point
                outcomes["math"] += 1
            assert got == want, point
        assert outcomes["math"] > 4000 and outcomes["clamped"] == 0 and outcomes["refused"] > 1000, outcomes

    def test_jets_bit_equal_in_all_ten_coefficients(self):
        rng = random.Random(18)
        for n, eps in _TABLES:
            rmap = ReducedMap(n, eps)
            for _ in range(5):
                s = Jet2.variable(rmap.s0 + rng.gauss(0.0, 1e-4), 0)
                r = Jet2.variable(rmap.r0 + rng.gauss(0.0, 1e-4), 1)
                got = half_period_formula(s, r, n, rmap.R, JET_BACKEND)
                want = _three_leg_half_period(s, r, n, rmap.R, _with_pi(JET_BACKEND))
                for a, b in zip(got, want):
                    assert len(a.c) == 10
                    assert struct.pack("<10d", *a.c) == struct.pack("<10d", *b.c)

    def test_a_cos_and_an_acos_are_the_whole_backend(self):
        # a namespace of the two functions the formula reads gives
        # FLOAT_BACKEND's bits and refusals, with no pi and no sin
        lib = SimpleNamespace(cos=math.cos, acos=FLOAT_BACKEND.acos)
        for point in chain(_seeded_points(), _edge_points()):
            got = _float_outcome(half_period_formula, *point, lib)
            assert got == _float_outcome(half_period_formula, *point, FLOAT_BACKEND), point

    def test_audit_backend_bit_equal(self):
        # mpmath.mp itself is the audit's backend: the formula's double pi,
        # lifted exactly, gives the three legs' bits with pi lifted up front
        from mpmath import mp

        lifted = _with_pi(mp, mp.mpf(math.pi))
        for n, eps in _TABLES:
            rmap = ReducedMap(n, eps)
            with mp.workdps(FD_DPS):
                h = mp.mpf(FD_STEP)
                s0, r0 = (mp.mpf(x) for x in rmap.fixed_point)
                for i, j in ((0, 0), (-2, 1), (2, -2)):
                    got = half_period_formula(s0 + i * h, r0 + j * h, n, rmap.R, mp)
                    want = _three_leg_half_period(s0 + i * h, r0 + j * h, n, rmap.R, lifted)
                    assert got[0] == want[0] and got[1] == want[1]
