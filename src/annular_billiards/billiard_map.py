"""The annular billiard map: explicit wall-to-wall formulas and a Cartesian oracle.

Phase-space conventions
-----------------------
A collision state is (wall, s, theta).  On the outer unit circle the arc
length s equals the polar angle, stored in [-pi, pi).  On the scatterer the
arc length is measured clockwise from the point facing (-1, 0) and offset so
that s = pi + R*(pi - gamma), where gamma in (0, 2*pi) is the anticlockwise
polar angle of the collision point about the scatterer center.  theta in
(0, pi) is the angle between the positively oriented tangent (domain on the
left) and the outgoing velocity.

The closed-form maps ``map_disk``, ``map_in`` and ``map_out`` apply to the
tangent configuration (scatterer center on the negative x-axis at distance
1 - R).  ``generic_step`` is an independent Cartesian ray tracer valid for
any scatterer pose; the two routes are cross-checked in the test suite.  The
ray tracer works on plain Python floats, with no NumPy in the per-step path:
it runs once per collision of every orbit the package validates.

The wall-to-wall formulas are written once, generically over a small math
backend, so the float map, the elementwise array map, the truncated-Taylor-jet
map and the high-precision audit map are guaranteed to be the same function.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jets
from .errors import DomainError, GrazingError, NoCollisionError, TangencyWarning
from .geometry import ScattererPose

#: tolerance for clamping arccos arguments that leave [-1, 1] through rounding
ACOS_CLAMP_TOL = 1e-10

#: minimum advance along a ray before a new intersection counts
MIN_FLIGHT = 1e-12


class Wall(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class PhasePoint:
    """Collision state (wall, arc length, reflection angle)."""

    wall: Wall
    s: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise DomainError(f"reflection angle must lie in (0, pi), got {self.theta}")


class BirkhoffCoords(NamedTuple):
    """Area-preserving coordinates (s, r = cos theta)."""

    s: float
    r: float


class StepResult(NamedTuple):
    point: PhasePoint
    flight: float


def wrap_pi(x: float) -> float:
    """Reduce an angle to [-pi, pi); exact when already in range."""
    if -math.pi <= x < math.pi:
        return x
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def to_birkhoff(p: PhasePoint) -> BirkhoffCoords:
    return BirkhoffCoords(p.s, math.cos(p.theta))


def from_birkhoff(bc: BirkhoffCoords, wall: Wall = Wall.OUTER) -> PhasePoint:
    if not -1.0 < bc.r < 1.0:
        raise DomainError(f"|r| must be < 1, got {bc.r}")
    return PhasePoint(wall, bc.s, math.acos(bc.r))


# ---------------------------------------------------------------------------
# backend-generic wall-to-wall formulas
# ---------------------------------------------------------------------------


class FloatBackend:
    """Plain double-precision math."""

    pi = math.pi
    cos = staticmethod(math.cos)
    sin = staticmethod(math.sin)

    @staticmethod
    def acos(u):
        if u > 1.0:
            if u - 1.0 > ACOS_CLAMP_TOL:
                raise NoCollisionError(f"arccos argument {u!r} exceeds 1")
            u = 1.0
        elif u < -1.0:
            if -1.0 - u > ACOS_CLAMP_TOL:
                raise NoCollisionError(f"arccos argument {u!r} below -1")
            u = -1.0
        return math.acos(u)


class ArrayBackend:
    """Elementwise double-precision math on NumPy arrays, bit-identical to
    ``FloatBackend`` element by element.

    ``np.cos``/``np.sin`` agree with ``math.cos``/``math.sin``; ``np.arccos``
    does not (it differs in the last bit on ~9% of arguments), so ``acos``
    maps ``math.acos`` over the clamped arguments.  An argument the float
    path would refuse with ``NoCollisionError`` becomes NaN.
    """

    pi = math.pi
    cos = staticmethod(np.cos)
    sin = staticmethod(np.sin)

    @staticmethod
    def acos(u):
        u = np.asarray(u, dtype=float)
        clamped = np.minimum(np.maximum(u, -1.0), 1.0).ravel().tolist()
        out = np.fromiter(map(math.acos, clamped), float, u.size).reshape(u.shape)
        out[np.abs(u) - 1.0 > ACOS_CLAMP_TOL] = np.nan
        return out


class JetBackend:
    """Degree-3 truncated Taylor arithmetic."""

    pi = math.pi
    cos = staticmethod(jets.jet_cos)
    sin = staticmethod(jets.jet_sin)
    acos = staticmethod(jets.jet_acos)


class MPBackend:
    """mpmath arithmetic at the caller's working precision.

    pi is the *double* pi lifted exactly, so the map being differentiated is
    bit-identical to the float/jet map.
    """

    def __init__(self, mp):
        self.mp = mp
        self.pi = mp.mpf(math.pi)
        self.cos = mp.cos
        self.sin = mp.sin
        self.acos = mp.acos


FLOAT_BACKEND = FloatBackend()
ARRAY_BACKEND = ArrayBackend()
JET_BACKEND = JetBackend()


def disk_formula(s, theta, bounces: int, lib=FLOAT_BACKEND):
    """bounces successive reflections inside the unit disk (no scatterer)."""
    return s + 2.0 * bounces * theta, theta


def scatterer_entry_formula(s, theta, R: float, lib=FLOAT_BACKEND):
    """Outer wall to scatterer, tangent configuration.

    theta1 = arccos((-cos(theta) - (1-R) cos(theta + s)) / R) and the new arc
    length follows from gamma1 = -pi + s + theta + theta1 through the
    clockwise parametrization s1 = pi + R*(pi - gamma1).
    """
    u = (-lib.cos(theta) - (1.0 - R) * lib.cos(theta + s)) / R
    theta1 = lib.acos(u)
    s1 = lib.pi + R * (2.0 * lib.pi - theta1 - theta - s)
    return s1, theta1


def scatterer_exit_formula(s, theta, R: float, lib=FLOAT_BACKEND):
    """Scatterer back to the outer wall, tangent configuration (time reverse
    of ``scatterer_entry_formula``)."""
    a = (s - lib.pi) / R
    w = -R * lib.cos(theta) - (1.0 - R) * lib.cos(theta - a)
    theta1 = lib.acos(w)
    s1 = theta + theta1 - a
    return s1, theta1


def half_period_formula(s, r, n: int, R: float, lib=FLOAT_BACKEND):
    """Reflection-composed half-period map in Birkhoff coordinates.

    Applies n-1 disk bounces, the scatterer entry and exit, then the mirror
    symmetry (s, r) -> (-s, -r).  Its square is the full period map of the
    tangent table.  Works unwrapped: near the reference orbit no angle
    reduction is ever required, which keeps the formulas smooth.
    """
    theta = lib.acos(r)
    s1, theta1 = disk_formula(s, theta, n - 1, lib)
    s2, theta2 = scatterer_entry_formula(s1, theta1, R, lib)
    s3, theta3 = scatterer_exit_formula(s2, theta2, R, lib)
    return -s3, -lib.cos(theta3)


# ---------------------------------------------------------------------------
# public phase-space maps (wrapped, validated)
# ---------------------------------------------------------------------------


def map_disk(p: PhasePoint, bounces: int) -> PhasePoint:
    """Iterate the unit-disk billiard map: (s, theta) -> (s + 2*bounces*theta, theta)."""
    if p.wall is not Wall.OUTER:
        raise DomainError("map_disk needs an outer-wall state")
    s1, th1 = disk_formula(p.s, p.theta, bounces)
    return PhasePoint(Wall.OUTER, wrap_pi(s1), th1)


def map_in(p: PhasePoint, R: float) -> PhasePoint:
    """Outer wall to scatterer for the tangent configuration of radius R."""
    if p.wall is not Wall.OUTER:
        raise DomainError("map_in needs an outer-wall state")
    s1, th1 = scatterer_entry_formula(p.s, p.theta, R)
    # reduce gamma to (0, 2*pi) so s lands in the fundamental arc interval
    gamma = math.pi - (s1 - math.pi) / R
    gamma %= 2.0 * math.pi
    return PhasePoint(Wall.INNER, math.pi + R * (math.pi - gamma), th1)


def map_out(p: PhasePoint, R: float) -> PhasePoint:
    """Scatterer back to the outer wall for the tangent configuration."""
    if p.wall is not Wall.INNER:
        raise DomainError("map_out needs an inner-wall state")
    s1, th1 = scatterer_exit_formula(p.s, p.theta, R)
    return PhasePoint(Wall.OUTER, wrap_pi(s1), th1)


def reflection(p: PhasePoint) -> PhasePoint:
    """Mirror symmetry about the x-axis.

    On the outer wall this is (s, theta) -> (-s, pi - theta); in Birkhoff
    coordinates (s, r) -> (-s, -r).  On the scatterer the mirrored arc
    length is 2*pi - s (the chart is centered on s = pi, not s = 0).
    """
    if p.wall is Wall.OUTER:
        return PhasePoint(Wall.OUTER, wrap_pi(-p.s), math.pi - p.theta)
    return PhasePoint(Wall.INNER, 2.0 * math.pi - p.s, math.pi - p.theta)


def reflection_birkhoff(bc: BirkhoffCoords) -> BirkhoffCoords:
    return BirkhoffCoords(-bc.s, -bc.r)


# ---------------------------------------------------------------------------
# Cartesian resolution and the generic ray-tracing oracle
# ---------------------------------------------------------------------------


def phase_to_cartesian(
    p: PhasePoint, pose: ScattererPose | None
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Collision point and outgoing unit velocity of a phase state."""
    if p.wall is Wall.OUTER:
        # tangent (-sin s, cos s); direction = cos(theta)*t + sin(theta)*(-normal)
        ang = p.s + p.theta
        return (math.cos(p.s), math.sin(p.s)), (-math.sin(ang), math.cos(ang))
    if pose is None:
        raise DomainError("inner-wall state needs a scatterer pose")
    R = pose.radius
    cx, cy = pose.center.tolist()
    gamma = math.pi - (p.s - math.pi) / R
    # positively oriented (clockwise) tangent (sin g, -cos g), outward normal (cos g, sin g)
    ang = gamma + p.theta
    return (
        (cx + R * math.cos(gamma), cy + R * math.sin(gamma)),
        (math.sin(ang), -math.cos(ang)),
    )


def _ray_circle_times(pos, vel, center, radius) -> list[float]:
    """Positive intersection times of the ray pos + t*vel with a circle,
    in increasing order."""
    dx = pos[0] - center[0]
    dy = pos[1] - center[1]
    b = vel[0] * dx + vel[1] * dy
    c = (dx * dx + dy * dy) - radius * radius
    disc = b * b - c
    if disc < 0.0:
        return []
    if disc < 1e-14 and c > MIN_FLIGHT:
        # grazing contact away from the launch wall carries no momentum change
        warnings.warn("tangential ray-circle contact skipped", TangencyWarning)
        return []
    sq = math.sqrt(disc)
    return [t for t in (-b - sq, -b + sq) if t > MIN_FLIGHT]


_ORIGIN = (0.0, 0.0)


def generic_step(p: PhasePoint, pose: ScattererPose | None) -> StepResult:
    """One collision-to-collision step by Cartesian ray tracing.

    Independent of the closed-form maps: launches the ray, intersects both
    circles, takes the earliest transversal hit, reflects specularly, and
    rebuilds the (wall, s, theta) chart at the new collision.
    """
    pos, vel = phase_to_cartesian(p, pose)
    (px, py), (vx, vy) = pos, vel
    times = _ray_circle_times(pos, vel, _ORIGIN, 1.0)
    t, wall = (times[0], Wall.OUTER) if times else (math.inf, None)
    if pose is not None:
        R = pose.radius
        cx, cy = center = pose.center.tolist()
        times = _ray_circle_times(pos, vel, center, R)
        if times and times[0] < t:
            t, wall = times[0], Wall.INNER
    if wall is None:
        raise NoCollisionError("ray escapes both walls")
    hx = px + t * vx
    hy = py + t * vy
    if wall is Wall.OUTER:
        s1 = math.atan2(hy, hx)
        nx, ny = -hx, -hy  # inward normal of the unit circle
        tx, ty = -hy, hx
    else:
        nx = (hx - cx) / R  # normal pointing into the billiard domain
        ny = (hy - cy) / R
        gamma = math.atan2(ny, nx) % (2.0 * math.pi)
        s1 = math.pi + R * (math.pi - gamma)
        tx, ty = ny, -nx
    k = 2.0 * (vx * nx + vy * ny)
    wx = vx - k * nx
    wy = vy - k * ny
    theta1 = math.atan2(wx * nx + wy * ny, wx * tx + wy * ty)
    if not 0.0 < theta1 < math.pi:
        raise GrazingError(f"degenerate reflection angle {theta1!r}")
    return StepResult(PhasePoint(wall, s1, theta1), t)
