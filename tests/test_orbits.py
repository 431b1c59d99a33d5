"""Periodic orbit construction: closure, flights, symmetries, serialization."""

import json
import math

import numpy as np
import pytest

from annular_billiards.billiard_map import tangency_radius_b
from annular_billiards.errors import BilliardError, InvalidTableError
from annular_billiards.geometry import (
    TableParams,
    max_radius,
    max_radius_star,
)
from annular_billiards.orbits import (
    PhasePoint,
    StepResult,
    Wall,
    build_type_a,
    build_type_b,
    generic_step,
    verify_closure,
    wrap_pi,
)

#: the (n, k) cases of the stability-scan benchmark, periods 12 to 108
BENCH_CASES = ((5, 1), (5, 2), (10, 3), (13, 4), (21, 5), (53, 6))


def _bench_orbits():
    for n, k in BENCH_CASES:
        for delta_frac in (0.0, 0.05):
            delta = delta_frac * max_radius(n, k, 0.0)
            yield build_type_a(TableParams.type_a(n, k, 0.5 * max_radius(n, k, delta), delta))


class TestTypeA:
    def test_square_orbit_flights(self):
        orbit = build_type_a(TableParams.type_a(4, 1, 0.2, 0.0))
        side = 2 * math.sin(math.pi / 4)
        near = math.sin(math.pi / 4) - 0.2
        assert orbit.period == 10
        np.testing.assert_allclose(orbit.flights[:3], side, atol=1e-14)
        np.testing.assert_allclose(orbit.flights[3:5], near, atol=1e-14)
        np.testing.assert_allclose(orbit.flights[8:], near, atol=1e-14)
        assert verify_closure(orbit) < 1e-12

    def test_star_pentagon(self):
        R = max_radius_star(5, 2, 0.0) / 2
        orbit = build_type_a(TableParams.type_a(5, 2, R, 0.0))
        side = 2 * math.sin(2 * math.pi / 5)
        for i in list(range(4)) + list(range(6, 10)):
            assert orbit.flights[i] == pytest.approx(side, abs=1e-14)
        assert verify_closure(orbit) < 1e-9

    def test_displacement_splits_flights_by_two_delta(self):
        delta = 0.013
        orbit = build_type_a(TableParams.type_a(4, 1, 0.2, delta))
        near = orbit.flights[3]
        far = orbit.flights[8]
        assert far - near == pytest.approx(2 * delta, abs=1e-14)

    def test_angle_sequence(self):
        n, k = 7, 2
        R = 0.5 * max_radius(n, k, 0.0)
        orbit = build_type_a(TableParams.type_a(n, k, R, 0.0))
        theta = k * math.pi / n
        for i in range(n):
            assert orbit.points[i].theta == pytest.approx(theta, abs=1e-14)
        for i in range(n + 1, 2 * n + 1):
            assert orbit.points[i].theta == pytest.approx(math.pi - theta, abs=1e-14)
        assert orbit.points[n].theta == pytest.approx(math.pi / 2, abs=1e-14)
        assert orbit.points[2 * n + 1].theta == pytest.approx(math.pi / 2, abs=1e-14)

    def test_inner_hits_at_expected_indices(self):
        orbit = build_type_a(TableParams.type_a(5, 1, 0.1, 0.02))
        walls = [p.wall for p in orbit.points]
        n = 5
        assert walls[n] is Wall.INNER
        assert walls[2 * n + 1] is Wall.INNER
        assert sum(w is Wall.INNER for w in walls) == 2

    def test_caustic_tangency_of_every_chord(self):
        for (n, k) in [(4, 1), (5, 2), (9, 4)]:
            orbit = build_type_a(TableParams.type_a(n, k, 0.4 * max_radius(n, k, 0.0), 0.0))
            pts = np.array(orbit.cartesian_points())
            want = math.cos(k * math.pi / n)
            for i in range(n - 1):
                a, b = pts[i], pts[i + 1]
                t = (b - a) / np.hypot(*(b - a))
                dist = abs(a[0] * t[1] - a[1] * t[0])
                assert dist == pytest.approx(want, abs=1e-10), (n, k, i)

    def test_wrong_config_rejected(self):
        with pytest.raises(InvalidTableError):
            build_type_a(TableParams.type_b(3, 0.01))


class TestTypeB:
    def test_closure_and_perpendicularity(self):
        orbit = build_type_b(3, 0.01)
        assert verify_closure(orbit) < 1e-9
        assert orbit.points[3].theta == pytest.approx(math.pi / 2, abs=1e-10)
        assert orbit.points[7].theta == pytest.approx(math.pi / 2, abs=1e-10)

    def test_larger_table(self):
        orbit = build_type_b(4, 0.02)
        assert orbit.period == 10
        assert verify_closure(orbit) < 1e-9

    def test_small_detuning_approaches_cusp_orbit(self):
        n = 5
        cusp = build_type_a(TableParams.type_a(n, 1, max_radius(n, 1, 0.0), 0.0))
        prev = None
        for eps in (1e-2, 1e-3, 1e-4):
            orbit = build_type_b(n, eps)
            gap = max(
                np.hypot(*(a - b))
                for a, b in zip(np.array(orbit.cartesian_points()), np.array(cusp.cartesian_points()))
            )
            if prev is not None:
                assert gap < 0.5 * prev
            prev = gap
        assert prev < 5e-4 * n

    def test_reflection_symmetry_of_point_set(self):
        orbit = build_type_b(4, 0.015)
        pts = np.array(orbit.cartesian_points())
        mirrored = pts * np.array([1.0, -1.0])
        for q in mirrored:
            assert min(np.hypot(*(q - p)) for p in pts) < 1e-9

    def test_radius_matches_tangency_formula(self):
        orbit = build_type_b(6, 2e-3)
        assert orbit.params.R == pytest.approx(tangency_radius_b(6, 2e-3), abs=1e-15)

    def test_inadmissible_detuning_rejected(self):
        # at large detuning the scatterer swallows other chords and the
        # stepped trajectory no longer closes
        with pytest.raises(InvalidTableError):
            build_type_b(3, 0.15)


class TestVerifyClosure:
    def test_perturbed_angle_breaks_closure(self):
        orbit = build_type_a(TableParams.type_a(4, 1, 0.2, 0.0))
        p0 = orbit.points[0]
        bad = PhasePoint(p0.wall, p0.s, p0.theta + 1e-3)
        pts = list(orbit.points)
        pts[0] = bad
        hacked = orbit._replace(points=tuple(pts))
        assert verify_closure(hacked) > 1e-6

    def test_type_b_closure(self):
        assert verify_closure(build_type_b(4, 0.02)) < 1e-9

    def test_recorded_residual_is_the_closure_check(self):
        # each builder keeps the residual it measured, bit for bit the one
        # verify_closure measures again
        built = 0
        for n in range(3, 30):
            for eps in (1e-4, 1e-3, 0.01, 0.02):
                try:
                    orbit = build_type_b(n, eps)
                except BilliardError:
                    continue
                assert orbit.closure_residual == verify_closure(orbit), (n, eps)
                built += 1
        for n, k in ((4, 1), (5, 2), (13, 4), (53, 6)):
            for delta_frac in (0.0, 0.05):
                delta = delta_frac * max_radius(n, k, 0.0)
                orbit = build_type_a(TableParams.type_a(n, k, 0.5 * max_radius(n, k, delta), delta))
                assert orbit.closure_residual == verify_closure(orbit), (n, k, delta)
                built += 1
        assert built >= 80


class TestRecords:
    """The tracer and ``build_type_a`` build their records without running
    ``PhasePoint``'s check on each point; the records are the same."""

    def test_step_returns_a_step_result_holding_a_phase_point(self):
        for orbit in [*_bench_orbits(), build_type_b(5, 0.002)]:
            for p in orbit.points:
                res = generic_step(p, orbit.pose)
                assert type(res) is StepResult and type(res.point) is PhasePoint
                assert type(res.point.wall) is Wall and type(res.point.s) is float
                assert type(res.point.theta) is float and type(res.flight) is float
                assert res == StepResult(PhasePoint(*res.point), res.flight)

    def test_type_a_points_are_the_checked_points(self):
        for orbit in _bench_orbits():
            n, k, R = orbit.params.n, orbit.params.k, orbit.params.R
            theta = k * math.pi / n
            outer = [PhasePoint(Wall.OUTER, wrap_pi(-math.pi + theta + 2.0 * j * theta), theta) for j in range(n)]
            back = [PhasePoint(Wall.OUTER, p.s, math.pi - theta) for p in reversed(outer)]
            half = math.pi / 2.0
            want = (
                *outer, PhasePoint(Wall.INNER, math.pi + R * math.pi / 2.0, half),
                *back, PhasePoint(Wall.INNER, math.pi - R * math.pi / 2.0, half),
            )
            assert orbit.points == want
            assert [type(p) for p in orbit.points] == [PhasePoint] * orbit.period
            assert [x.hex() for p in orbit.points for x in p[1:]] == [x.hex() for p in want for x in p[1:]]


class TestSerialization:
    def test_json_round_trip(self):
        orbit = build_type_a(TableParams.type_a(4, 1, 0.2, 0.01))
        doc = orbit.to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["params"]["n"] == 4
        assert back["params"]["config"] == "type_a"
        assert len(back["points"]) == 10
        assert len(back["flights"]) == 10
        assert back["closure_residual"] < 1e-9
        assert back["points"][4]["wall"] == "inner"

    def test_polyline_closes(self):
        orbit = build_type_a(TableParams.type_a(5, 2, 0.05, 0.0))
        line = np.array(orbit.polyline())
        assert line.shape == (13, 2)
        np.testing.assert_allclose(line[0], line[-1], atol=1e-15)
        assert np.all(np.hypot(line[:, 0], line[:, 1]) <= 1.0 + 1e-12)
