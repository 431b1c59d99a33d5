"""The annular billiard map in closed form.

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
1 - R).  Their independent oracle, the Cartesian ray tracer
``generic_step``, lives in ``orbits``, its one caller; the two routes are
cross-checked in the test suite.

The wall-to-wall formulas are written once, generically over a small math
backend, so the float map, the truncated-Taylor-jet map and the
high-precision audit map are guaranteed to be the same function.  This module
imports only the standard library: the jet backend loads ``jets`` on its
first use, so a program that iterates the float map, such as ``section``,
does not load it.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import DomainError, NoCollisionError

#: tolerance for clamping arccos arguments that leave [-1, 1] through rounding
ACOS_CLAMP_TOL = 1e-10


class Wall(enum.Enum):
    OUTER = "outer"
    INNER = "inner"


class _PhaseFields(NamedTuple):
    wall: Wall
    s: float
    theta: float


class PhasePoint(_PhaseFields):
    """Collision state (wall, arc length, reflection angle); construction
    (``_replace`` too) checks the angle."""

    __slots__ = ()

    def __new__(cls, wall: Wall, s: float, theta: float):
        if not 0.0 < theta < math.pi:
            raise DomainError(f"reflection angle must lie in (0, pi), got {theta}")
        return tuple.__new__(cls, (wall, s, theta))

    @classmethod
    def _make(cls, iterable) -> "PhasePoint":
        return cls(*iterable)


class BirkhoffCoords(NamedTuple):
    """Area-preserving coordinates (s, r = cos theta)."""

    s: float
    r: float


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


class JetBackend:
    """Degree-3 truncated Taylor arithmetic.

    ``cos``, ``sin`` and ``acos`` come from ``jets``, imported on the first
    lookup of one of them and then kept on the instance.
    """

    pi = math.pi

    def __getattr__(self, name):
        from . import jets

        self.cos, self.sin, self.acos = jets.jet_cos, jets.jet_sin, jets.jet_acos
        return object.__getattribute__(self, name)


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
