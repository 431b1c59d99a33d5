"""Closed-form table geometry against independent Cartesian reconstructions."""

import math

import numpy as np
import pytest
from mpmath import mp

from annular_billiards.billiard_map import tangency_radius_b
from annular_billiards.errors import DomainError, InvalidTableError
from annular_billiards.geometry import (
    TableParams,
    chord_lines,
    clearance_from_other_chords,
    max_radius,
    max_radius_star,
    scatterer_pose,
)
from annular_billiards.orbits import build_type_b


class TestTangencyRadiusSimple:
    """The symmetric k = 1 scatterer's largest radius, max_radius(n, 1, 0),
    where it touches the outer circle and the orbit forms a cusp."""

    def test_n3_exact(self):
        assert max_radius(3, 1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_n4_exact(self):
        assert max_radius(4, 1, 0.0) == pytest.approx(1.0 - math.sqrt(2) / 2, abs=1e-15)

    def test_n10_internal_tangency(self):
        # oracle: the scatterer of radius v centered on the chord at distance
        # cos(pi/10) from the origin touches the unit circle from inside
        v = max_radius(10, 1, 0.0)
        center = np.array([-math.cos(math.pi / 10), 0.0])
        assert np.hypot(*center) + v == pytest.approx(1.0, abs=1e-14)
        pose = scatterer_pose(TableParams.type_a(10, 1, v, 0.0))
        assert pose.interiority_defect() == pytest.approx(0.0, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            max_radius(2, 1, 0.0)

    def test_decreasing_in_n(self):
        vals = [max_radius(n, 1, 0.0) for n in range(3, 60)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMaxRadiusDelta:
    def test_delta_zero_reduces_to_tangency(self):
        assert max_radius(4, 1, 0.0) == pytest.approx(1.0 - math.sqrt(2) / 2, abs=1e-15)

    def test_displaced_value(self):
        # oracle: 1 minus the distance from the origin to the displaced center
        got = max_radius(4, 1, 0.1)
        center = np.array([-math.cos(math.pi / 4), 0.1])
        assert got == pytest.approx(1.0 - np.hypot(*center), abs=1e-14)
        assert got == pytest.approx(0.285857157145715, abs=1e-14)

    def test_limiting_degeneracy(self):
        eps = 1e-9
        assert max_radius(3, 1, math.sin(math.pi / 3) - eps) == pytest.approx(0.0, abs=1e-8)
        with pytest.raises(DomainError):
            max_radius(3, 1, math.sin(math.pi / 3))

    @pytest.mark.parametrize("n", [200, 10_000, 1_000_000])
    @pytest.mark.parametrize("shift", [0.0, 0.5], ids=["delta0", "delta_half_sin"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_large_n_cap_keeps_its_digits(self, n, shift, k):
        # oracle: 1 - sqrt(delta^2 + cos^2(k pi/n)) in 40-digit arithmetic; in
        # floats that difference cancels (relative error 1.3e-5 at n = 1e6)
        # the shift is a fraction of the delta range, sin(pi/n) at k = 1 and
        # the star bound's cos(k pi/n) tan(pi/n) at k >= 2, where the cap is
        # the smaller of the disk and star bounds
        if k == 1:
            delta = shift * math.sin(math.pi / n)
        else:
            delta = shift * math.cos(k * math.pi / n) * math.tan(math.pi / n)
        got = max_radius(n, k, delta)
        with mp.workdps(40):
            want = 1 - mp.sqrt(mp.mpf(delta) ** 2 + mp.cos(k * mp.pi / n) ** 2)
            if k > 1:
                star_cap = mp.cos(k * mp.pi / n) * mp.tan(mp.pi / n)
                want = min(want, mp.sin(2 * mp.pi / n) * (star_cap - mp.mpf(delta)))
            assert abs(got - want) <= 1e-15 * want


class TestMaxRadiusStar:
    def test_symmetric_value(self):
        want = 2.0 * math.cos(2 * math.pi / 5) * math.sin(math.pi / 5) ** 2
        assert max_radius_star(5, 2, 0.0) == pytest.approx(want, abs=1e-15)

    def test_geometric_oracle(self):
        # oracle: distance from the displaced chord midpoint to the nearest
        # other chord line of the star polygon
        for (n, k, delta) in [(5, 2, 0.0), (7, 3, 0.01), (9, 4, 0.005)]:
            want = max_radius_star(n, k, delta)
            r = math.cos(k * math.pi / n)
            lines = chord_lines(n, k)
            cx, cy = -r, delta
            dists = [abs(ux * cx + uy * cy - c) for ux, uy, c in lines[:-1]]
            assert min(dists) == pytest.approx(want, abs=1e-12), (n, k, delta)

    def test_limiting_degeneracy(self):
        cap = math.cos(3 * math.pi / 7) * math.tan(math.pi / 7)
        assert max_radius_star(7, 3, cap * (1 - 1e-12)) == pytest.approx(0.0, abs=1e-11)

    def test_decreasing_in_delta(self):
        base = max_radius_star(5, 2, 0.0)
        for delta in (0.01, 0.05, 0.1):
            assert max_radius_star(5, 2, delta) < base

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            max_radius_star(4, 2, 0.0)  # gcd(2, 4) != 1
        with pytest.raises(DomainError):
            max_radius_star(5, 1, 0.0)  # k must exceed 1


class TestCausticRadius:
    def test_exact_values(self):
        # every chord line of the reference polygon sits at the caustic
        # radius cos(k pi/n), and passes through two of its outer vertices
        for (n, k), want in [((4, 1), math.sqrt(2) / 2), ((5, 2), math.cos(2 * math.pi / 5))]:
            s0 = -math.pi + k * math.pi / n
            vertices = [(math.cos(s0 + 2 * j * k * math.pi / n), math.sin(s0 + 2 * j * k * math.pi / n)) for j in range(n)]
            for j, (ux, uy, c) in enumerate(chord_lines(n, k)):
                assert c == pytest.approx(want, abs=1e-15)
                assert math.hypot(ux, uy) == pytest.approx(1.0, abs=1e-15)
                for x, y in (vertices[j], vertices[(j + 1) % n]):
                    assert ux * x + uy * y == pytest.approx(c, abs=1e-15)

    def test_gcd_guard(self):
        # a k sharing a factor with n traces no single star polygon
        with pytest.raises(DomainError):
            max_radius(6, 2, 0.0)
        with pytest.raises(InvalidTableError):
            TableParams.type_a(9, 3, 0.01, 0.0)

    def test_chord_distance_oracle(self):
        # distance from the origin to the line through consecutive collision
        # points equals the caustic radius cos(k pi/n)
        from annular_billiards.orbits import build_type_a

        for (n, k) in [(4, 1), (5, 2), (7, 3)]:
            params = TableParams.type_a(n, k, 0.4 * max_radius(n, k, 0.0), 0.0)
            orbit = build_type_a(params)
            pts = np.array(orbit.cartesian_points())
            a, b = pts[0], pts[1]
            t = b - a
            t /= np.hypot(*t)
            dist = abs(a[0] * t[1] - a[1] * t[0])
            assert dist == pytest.approx(math.cos(k * math.pi / n), abs=1e-12)


class TestTangencyRadiusB:
    def test_zero_detuning_limit(self):
        for n in (3, 4, 7, 20):
            assert tangency_radius_b(n, 0.0) == pytest.approx(
                max_radius(n, 1, 0.0), abs=1e-14
            )

    @pytest.mark.parametrize("n,eps", [(3, 0.01), (4, 0.005)])
    def test_tangency_oracle(self, n, eps):
        params = TableParams.type_b(n, eps)
        pose = scatterer_pose(params)
        assert abs(pose.interiority_defect()) < 1e-12

    def test_singular_configuration(self):
        from annular_billiards.errors import SingularConfigurationError

        # push n*theta0 to pi/2 where the formula degenerates
        n = 3
        eps = math.pi / (2 * n) - math.pi / n
        with pytest.raises(SingularConfigurationError):
            tangency_radius_b(n, eps)


class TestScattererPose:
    def test_type_a_symmetric_placement(self):
        params = TableParams.type_a(4, 1, 0.2, 0.0)
        pose = scatterer_pose(params)
        assert pose.center[0] == pytest.approx(-math.cos(math.pi / 4), abs=1e-15)
        assert pose.center[1] == pytest.approx(0.0, abs=1e-15)
        assert pose.center_distance == pytest.approx(math.cos(math.pi / 4), abs=1e-14)

    def test_type_b_tangency_residual(self):
        pose = scatterer_pose(TableParams.type_b(3, 0.01))
        assert abs(pose.interiority_defect()) < 1e-12

    def test_cusp_pose_matches_type_b_limit(self):
        n = 5
        r0 = max_radius(n, 1, 0.0)
        pose_a = scatterer_pose(TableParams.type_a(n, 1, r0, 0.0))
        assert abs(pose_a.interiority_defect()) < 1e-12
        assert pose_a.center[0] == pytest.approx(-(1.0 - r0), abs=1e-14)

    def test_oversized_radius_rejected(self):
        with pytest.raises(InvalidTableError):
            TableParams.type_a(4, 1, max_radius(4, 1, 0.1) + 1e-6, 0.1)

    def test_every_pose_interior(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            ks = [k for k in range(1, n // 2 + 1) if math.gcd(k, n) == 1]
            k = int(rng.choice(ks))
            delta = float(rng.uniform(0.0, 0.2)) * math.sin(math.pi / n)
            try:
                cap = max_radius(n, k, delta)
            except DomainError:
                continue
            R = float(rng.uniform(0.1, 1.0)) * cap
            pose = scatterer_pose(TableParams.type_a(n, k, R, delta))
            assert pose.interiority_defect() <= 1e-12


class TestChordClearance:
    def test_star_orbit_segments_avoid_scatterer(self):
        # numerical verification that the admissible radius keeps the other
        # orbit segments clear of the scatterer
        for (n, k) in [(5, 2), (7, 2), (7, 3), (9, 2), (9, 4)]:
            for delta in (0.0, 0.005):
                cap = max_radius_star(n, k, delta)
                params = TableParams.type_a(n, k, 0.999 * cap, delta)
                clearance = clearance_from_other_chords(params)
                assert clearance >= params.R - 1e-12


class TestTableParams:
    def test_type_b_requires_positive_detuning(self):
        # without this refusal eps = 0 at n = 3 would pass as a type (a)
        # table: the tangency radius 0.5 equals the type (a) cap there
        for epsilon in (0.0, -0.0):
            with pytest.raises(InvalidTableError, match=f"^type \\(b\\) needs epsilon > 0, got {epsilon}$"):
                TableParams.type_b(3, epsilon)

    def test_type_b_radius_is_derived(self):
        params = TableParams.type_b(3, 0.01)
        assert params.R == pytest.approx(tangency_radius_b(3, 0.01), abs=1e-15)
        assert params.epsilon == 0.01 and len(params) == 5
        # the orbit's first state carries the detuned angle pi/n + epsilon
        assert build_type_b(3, 0.01).points[0].theta == pytest.approx(math.pi / 3 + 0.01, abs=1e-15)

    def test_coprimality_enforced(self):
        with pytest.raises(InvalidTableError):
            TableParams.type_a(6, 2, 0.05, 0.0)

    def test_radius_bounds_enforced(self):
        with pytest.raises(InvalidTableError):
            TableParams.type_a(3, 1, 0.0, 0.0)
        with pytest.raises(InvalidTableError):
            TableParams.type_a(3, 1, 0.75, 0.0)  # past the cusp radius

    def test_star_radius_touching_another_chord_is_refused(self):
        # at max_radius_star the scatterer touches the nearest other chord
        # of the orbit; k = 1 has no such chord and keeps its disk cap
        for n, k, delta in [(5, 2, 0.0), (5, 2, 0.01), (7, 3, 0.002)]:
            cap = max_radius_star(n, k, delta)
            with pytest.raises(InvalidTableError, match="touches another chord"):
                TableParams.type_a(n, k, cap, delta)
            TableParams.type_a(n, k, math.nextafter(cap, 0.0), delta)
        TableParams.type_a(5, 1, max_radius(5, 1, 0.01), 0.01)

    def test_direct_construction_is_validated(self):
        with pytest.raises(InvalidTableError):
            TableParams(n=6, k=2, R=0.05, delta=0.0, epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [-0.3, -1e-300, math.nan])
    def test_detuning_below_zero_is_refused(self, epsilon):
        with pytest.raises(InvalidTableError, match="need epsilon >= 0"):
            TableParams(5, 1, 0.1, 0.0, epsilon)

    def test_positive_detuning_makes_a_tangent_table(self):
        # a detuned table is type (b), so its radius must be the tangency
        # radius; at n = 5, eps = 0.3 there is none in (0, 1)
        with pytest.raises(InvalidTableError, match="must equal the tangency radius"):
            TableParams(5, 1, 0.1, 0.0, 0.01)
        with pytest.raises(InvalidTableError, match="tangency radius -7.47052 outside \\(0, 1\\)"):
            TableParams(5, 1, 0.1, 0.0, 0.3)
        with pytest.raises(InvalidTableError, match="tangency radius -7.47052 outside \\(0, 1\\)"):
            TableParams.type_b(5, 0.3)
        with pytest.raises(InvalidTableError, match="type \\(b\\) requires k=1, delta=0"):
            TableParams(5, 1, 0.1, 0.01, 0.3)
        params = TableParams.type_b(5, 0.01)
        assert TableParams(5, 1, params.R, 0.0, 0.01) == params
        assert scatterer_pose(params).center == (-(1.0 - params.R), 0.0)

    def test_validated_once_per_table(self, monkeypatch):
        calls = []
        validate = TableParams.validate
        monkeypatch.setattr(TableParams, "validate", lambda self: calls.append(self) or validate(self))
        params = TableParams.type_a(5, 2, 0.1, 0.01)
        scatterer_pose(params)
        TableParams.type_b(4, 0.01)
        assert len(calls) == 2
