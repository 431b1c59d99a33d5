"""Wall-to-wall maps against the Cartesian ray-tracing oracle."""

import math
import warnings

import numpy as np
import pytest

from annular_billiards.billiard_map import (
    MIN_FLIGHT,
    BirkhoffCoords,
    PhasePoint,
    Wall,
    from_birkhoff,
    generic_step,
    map_disk,
    map_in,
    map_out,
    phase_to_cartesian,
    reflection,
    reflection_birkhoff,
    to_birkhoff,
    wrap_pi,
)
from annular_billiards.errors import (
    BilliardError,
    DomainError,
    GrazingError,
    NoCollisionError,
    TangencyWarning,
)
from annular_billiards.geometry import TableParams, max_radius
from annular_billiards.linear_stability import bounce_jacobian
from annular_billiards.orbits import build_type_a, build_type_b


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


class TestDiskMap:
    def test_identity_at_zero_bounces(self):
        p = PhasePoint(Wall.OUTER, 0.4, 1.1)
        assert map_disk(p, 0) == p

    def test_polygon_advance(self):
        n = 6
        p = PhasePoint(Wall.OUTER, 0.2, math.pi / n)
        q = map_disk(p, n - 1)
        assert q.s == pytest.approx(wrap_pi(0.2 + 2 * (n - 1) * math.pi / n), abs=1e-14)
        assert q.theta == p.theta

    def test_against_ray_tracer(self):
        p = PhasePoint(Wall.OUTER, 0.3, 0.7)
        q = map_disk(p, 5)
        r = p
        for _ in range(5):
            r = generic_step(r, None).point
        assert wrap_pi(q.s - r.s) == pytest.approx(0.0, abs=1e-10)
        assert q.theta == pytest.approx(r.theta, abs=1e-10)

    def test_wall_guard(self):
        with pytest.raises(DomainError):
            map_disk(PhasePoint(Wall.INNER, math.pi, 1.0), 1)


class TestScattererMaps:
    @pytest.fixture()
    def tangent_table(self):
        orbit = build_type_b(3, 0.01)
        return orbit

    def test_perpendicular_entry_at_orbit(self, tangent_table):
        z = tangent_table.points[2]  # last outer point before the scatterer
        q = map_in(z, tangent_table.params.R)
        assert q.wall is Wall.INNER
        assert q.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_symmetric_entry_is_perpendicular(self):
        # symmetric chord-mounted scatterer: normal incidence at the hit
        params = TableParams.type_a(4, 1, 0.2, 0.0)
        orbit = build_type_a(params)
        z = orbit.points[3]
        q = map_in(z, 0.2)
        # the tangent-pose closed form only covers the tangent table, so use
        # the ray tracer for the general pose
        res = generic_step(z, orbit.pose)
        assert res.point.theta == pytest.approx(math.pi / 2, abs=1e-12)

    def test_entry_against_ray_tracer(self, tangent_table):
        rng = np.random.default_rng(3)
        pose = tangent_table.pose
        R = tangent_table.params.R
        z = tangent_table.points[2]
        checked = 0
        for _ in range(1000):
            ds, dth = rng.normal(scale=2e-2, size=2)
            p = PhasePoint(Wall.OUTER, z.s + ds, z.theta + dth)
            want = generic_step(p, pose).point
            if want.wall is not Wall.INNER:
                continue
            got = map_in(p, R)
            assert got.s == pytest.approx(want.s, abs=1e-10)
            assert got.theta == pytest.approx(want.theta, abs=1e-10)
            checked += 1
        assert checked > 900

    def test_exit_against_ray_tracer(self, tangent_table):
        rng = np.random.default_rng(4)
        pose = tangent_table.pose
        R = tangent_table.params.R
        z = tangent_table.points[3]
        for _ in range(1000):
            ds, dth = rng.normal(scale=1e-2, size=2)
            p = PhasePoint(Wall.INNER, z.s + ds * R, z.theta + dth)
            want = generic_step(p, pose).point
            assert want.wall is Wall.OUTER
            got = map_out(p, R)
            assert wrap_pi(got.s - want.s) == pytest.approx(0.0, abs=1e-10)
            assert got.theta == pytest.approx(want.theta, abs=1e-10)

    def test_exit_reverses_perpendicular_entry(self, tangent_table):
        R = tangent_table.params.R
        z = tangent_table.points[2]
        inner = map_in(z, R)
        back = map_out(inner, R)
        assert wrap_pi(back.s - z.s) == pytest.approx(0.0, abs=1e-10)
        assert back.theta == pytest.approx(math.pi - z.theta, abs=1e-10)

    def test_no_collision_error(self, tangent_table):
        # a chord from (1, 0) heading down-left passes well under the scatterer
        R = tangent_table.params.R
        p = PhasePoint(Wall.OUTER, 0.0, 2.6)
        with pytest.raises(NoCollisionError):
            map_in(p, R)

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
        bc = BirkhoffCoords(0.7, -0.3)
        rb = reflection_birkhoff(bc)
        assert rb == BirkhoffCoords(-0.7, 0.3)

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
        pos, _ = phase_to_cartesian(z, orbit.pose)
        mpos, _ = phase_to_cartesian(m, orbit.pose)
        assert mpos[0] == pytest.approx(pos[0], abs=1e-12)
        assert mpos[1] == pytest.approx(-pos[1], abs=1e-12)


class TestBirkhoffCoords:
    def test_normal_incidence(self):
        p = PhasePoint(Wall.OUTER, 0.3, math.pi / 2)
        bc = to_birkhoff(p)
        assert bc.r == pytest.approx(0.0, abs=1e-16)

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(1000):
            p = PhasePoint(Wall.OUTER, rng.uniform(-3, 3), rng.uniform(0.05, math.pi - 0.05))
            q = from_birkhoff(to_birkhoff(p))
            worst = max(worst, abs(q.s - p.s), abs(q.theta - p.theta))
        assert worst < 1e-14

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            from_birkhoff(BirkhoffCoords(0.0, 1.0))

    def test_composed_map_area_preservation(self):
        # finite-difference determinant of the half-period map in (s, r)
        rm_params = (4, 0.01)
        from annular_billiards.birkhoff import ReducedMap

        rmap = ReducedMap(*rm_params)
        fp = rmap.fixed_point
        rng = np.random.default_rng(9)
        h = 1e-6
        for _ in range(200):
            s = fp.s + rng.normal(scale=0.01)
            r = fp.r + rng.normal(scale=0.01)
            J = np.zeros((2, 2))
            for col, (ds, dr) in enumerate(((h, 0.0), (0.0, h))):
                sp, rp = rmap.apply(s + ds, r + dr)
                sm, rm = rmap.apply(s - ds, r - dr)
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
        from annular_billiards.billiard_map import _ray_circle_times
        from annular_billiards.errors import TangencyWarning

        R = 0.2
        h = math.sqrt(R * R - 5e-15)
        pos = np.array([0.0, 0.0])
        vel = np.array([1.0, 0.0])
        center = np.array([2.0, h])
        with pytest.warns(TangencyWarning):
            times = _ray_circle_times(pos, vel, center, R)
        assert times == []


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
