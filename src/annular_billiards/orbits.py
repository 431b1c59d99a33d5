"""Construction and verification of the periodic orbits.

Both families close after 2n+2 collisions: n on the outer circle, one
perpendicular hit on the scatterer (index n), the n outer collisions of the
reversed path, and the second perpendicular hit (index 2n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .billiard_map import (
    PhasePoint,
    Wall,
    generic_step,
    phase_to_cartesian,
    wrap_pi,
)
from .errors import InvalidTableError
from .geometry import ScattererPose, TableConfig, TableParams, scatterer_pose

#: maximum closure residual accepted when a constructed orbit is validated
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class OrbitRecord:
    """A periodic orbit as an explicit collision sequence.

    points[i] is the i-th collision state, flights[i] the free flight from
    points[i] to points[i+1] (cyclically), and curvatures[i] the signed wall
    curvature at points[i] (-1 on the outer circle, +1/R on the scatterer).
    """

    params: TableParams
    points: tuple[PhasePoint, ...]
    flights: tuple[float, ...]
    curvatures: tuple[float, ...]
    pose: ScattererPose = field(repr=False)

    @property
    def period(self) -> int:
        return len(self.points)

    def cartesian_points(self) -> np.ndarray:
        """Collision points in the plane, shape (2n+2, 2)."""
        return np.array(
            [phase_to_cartesian(p, self.pose)[0] for p in self.points]
        )

    def polyline(self) -> np.ndarray:
        """Closed polygonal trajectory for rendering, shape (2n+3, 2)."""
        pts = self.cartesian_points()
        return np.vstack([pts, pts[:1]])

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "n": self.params.n,
                "k": self.params.k,
                "R": self.params.R,
                "delta": self.params.delta,
                "epsilon": self.params.epsilon,
                "config": self.params.config.value,
            },
            "points": [
                {"wall": p.wall.value, "s": p.s, "theta": p.theta}
                for p in self.points
            ],
            "flights": list(self.flights),
            "curvatures": list(self.curvatures),
            "closure_residual": verify_closure(self),
        }


def _phase_gap(a: PhasePoint, b: PhasePoint) -> float:
    """Chart distance between two states on the same wall."""
    if a.wall is not b.wall:
        return math.inf
    ds = wrap_pi(a.s - b.s) if a.wall is Wall.OUTER else a.s - b.s
    return max(abs(ds), abs(a.theta - b.theta))


def build_type_a(params: TableParams) -> OrbitRecord:
    """Construct the polygon-with-scatterer orbit from its closed-form geometry.

    The n outer collisions sit at angles s0 + 2jk*pi/n with s0 = -pi + k*pi/n
    and reflection angle k*pi/n; the reversed path revisits them with angle
    pi - k*pi/n.  The scatterer is hit perpendicularly from both sides of its
    chord, at arc parameters pi + R*pi/2 and pi - R*pi/2.
    """
    if params.config is not TableConfig.TYPE_A:
        raise InvalidTableError("build_type_a needs a type (a) table")
    n, k, R, delta = params.n, params.k, params.R, params.delta
    pose = scatterer_pose(params)
    theta = k * math.pi / n
    s0 = -math.pi + theta
    outer_angles = [wrap_pi(s0 + 2.0 * j * theta) for j in range(n)]

    pts: list[PhasePoint] = []
    pts += [PhasePoint(Wall.OUTER, a, theta) for a in outer_angles]
    pts.append(PhasePoint(Wall.INNER, math.pi + R * math.pi / 2.0, math.pi / 2.0))
    pts += [
        PhasePoint(Wall.OUTER, outer_angles[n - 1 - j], math.pi - theta)
        for j in range(n)
    ]
    pts.append(PhasePoint(Wall.INNER, math.pi - R * math.pi / 2.0, math.pi / 2.0))

    side = 2.0 * math.sin(theta)
    near = math.sin(theta) - R - delta
    far = math.sin(theta) - R + delta
    flights = [side] * (n - 1) + [near, near] + [side] * (n - 1) + [far, far]

    curv = [-1.0 if p.wall is Wall.OUTER else 1.0 / R for p in pts]
    orbit = OrbitRecord(params, tuple(pts), tuple(flights), tuple(curv), pose)
    _validate_orbit(orbit)
    return orbit


def build_type_b(n: int, epsilon: float) -> OrbitRecord:
    """Construct the tangent-scatterer orbit with detuned angle pi/n + epsilon.

    Starts from the fixed point s0 = -pi + pi/n + epsilon*(1-n),
    theta0 = pi/n + epsilon and follows the Cartesian ray tracer for a full
    period, so every recorded flight and collision is dynamically generated.
    """
    params = TableParams.type_b(n, epsilon)
    pose = scatterer_pose(params)
    theta0 = params.theta0
    s0 = -math.pi + math.pi / n + epsilon * (1.0 - n)
    p = PhasePoint(Wall.OUTER, wrap_pi(s0), theta0)

    pts = [p]
    flights: list[float] = []
    for _ in range(2 * n + 2):
        res = generic_step(p, pose)
        flights.append(res.flight)
        pts.append(res.point)
        p = res.point
    if _phase_gap(pts[0], pts[-1]) > CLOSURE_TOL:
        raise InvalidTableError(
            f"type (b) orbit did not close (residual {_phase_gap(pts[0], pts[-1]):.3g})"
        )
    pts = pts[:-1]
    if abs(pts[n].theta - math.pi / 2.0) > 1e-10 or abs(
        pts[2 * n + 1].theta - math.pi / 2.0
    ) > 1e-10:
        raise InvalidTableError("scatterer hits are not perpendicular")

    curv = [-1.0 if q.wall is Wall.OUTER else 1.0 / params.R for q in pts]
    return OrbitRecord(params, tuple(pts), tuple(flights), tuple(curv), pose)


def verify_closure(orbit: OrbitRecord) -> float:
    """Residual of one full period of the Cartesian ray tracer.

    Returns the maximum chart distance between the stepped trajectory and the
    recorded points, including the return to points[0].
    """
    p = orbit.points[0]
    worst = 0.0
    m = orbit.period
    for i in range(m):
        res = generic_step(p, orbit.pose)
        p = res.point
        target = orbit.points[(i + 1) % m]
        worst = max(worst, _phase_gap(p, target))
    return worst


def _validate_orbit(orbit: OrbitRecord) -> None:
    res = verify_closure(orbit)
    if res > CLOSURE_TOL:
        raise InvalidTableError(f"orbit closure residual {res:.3g} exceeds {CLOSURE_TOL}")
