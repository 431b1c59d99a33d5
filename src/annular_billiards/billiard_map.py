"""The annular billiard map of the tangent table in closed form.

Phase-space conventions
-----------------------
A collision state is (wall, s, theta).  On the outer unit circle the arc
length s equals the polar angle, stored in [-pi, pi).  On the scatterer the
arc length is measured clockwise from the point facing (-1, 0) and offset so
that s = pi + R*(pi - gamma), where gamma in (0, 2*pi) is the anticlockwise
polar angle of the collision point about the scatterer center.  theta in
(0, pi) is the angle between the positively oriented tangent (domain on the
left) and the outgoing velocity.  The records of this chart, ``Wall`` and
``PhasePoint``, live in ``orbits`` with the ray tracer that builds them.

The tangent table (scatterer center on the negative x-axis at distance
1 - R) keeps its scatterer tangent to the outer circle at the radius
``tangency_radius_b``, which admits the table: it refuses one whose orbit
cannot exist, a disk chord of the fixed point ``tangent_fixed_point``
meeting the scatterer included.  Its half-period map is one straight-line
formula, ``half_period_formula``, written over a backend that is any
namespace with a ``cos`` and an ``acos``: ``math``, ``mpmath.mp``, the
float backend and the jet backend run the same operations in the same
order, with the double ``math.pi``, which mpmath lifts exactly.  On each
an arccos argument off [-1, 1] is a missed wall, and the map refuses it.
Its independent oracle, the Cartesian ray tracer ``generic_step``, lives
in ``orbits``, its one caller; the two routes are cross-checked in the
test suite.

This module imports only the standard library: the jet backend loads
``jets`` on its first use, so a program that iterates the float map, such as
``section``, does not load it.
"""

from __future__ import annotations

import math
from math import pi
from typing import NamedTuple

from .errors import InvalidTableError, NoCollisionError


def tangent_fixed_point(n: int, epsilon: float) -> tuple[float, float]:
    """The detuned orbit's initial state (s0, theta0) on the outer wall of
    the tangent table (n, epsilon): s0 = -pi + pi/n + epsilon*(1-n) and
    theta0 = pi/n + epsilon, the fixed point of ``half_period_formula``."""
    return -pi + pi / n + epsilon * (1.0 - n), pi / n + epsilon


def tangency_radius_b(n: int, epsilon: float) -> float:
    """Scatterer radius keeping tangency when the angle is detuned to pi/n + eps.

    With theta0 = pi/n + epsilon the chord of the detuned orbit crosses the
    negative x-axis at distance cos(theta0)/cos(n*epsilon) from the origin,
    which yields R_b = 1 + cos(theta0)/cos(n*theta0).

    This is the one admission of a tangent table (n, epsilon): every route
    that builds one calls it, and it refuses with ``InvalidTableError`` an
    n below 3, a detuning outside (0, pi - pi/n) (NaN too), where theta0
    would leave the reflection angles' range, a vanishing cos(n*theta0), a
    radius outside (0, 1), and a table whose fixed point is off the map's
    chart: one of its n - 1 disk chords meets the scatterer, so the orbit
    does not exist.
    """
    if n < 3:
        raise InvalidTableError(f"need n >= 3, got {n}")
    if not 0.0 < epsilon < math.pi - math.pi / n:
        raise InvalidTableError(f"need 0 < epsilon < pi - pi/n at n={n}, got {epsilon}")
    s0, theta0 = tangent_fixed_point(n, epsilon)
    cn = math.cos(n * theta0)
    if abs(cn) < 1e-9:
        raise InvalidTableError(f"cos(n*theta0) ~ 0 at n={n}, epsilon={epsilon}")
    r0 = math.cos(theta0)
    r = 1.0 + r0 / cn
    if not 0.0 < r < 1.0:
        raise InvalidTableError(
            f"tangency radius {r:.6g} outside (0, 1) at n={n}, epsilon={epsilon}"
        )
    for j in range(n - 1):
        # disk chord j's scatterer-entry arccos argument, the map's u2 at
        # j = n - 1: in [-1, 1], the chord meets the scatterer
        arg = (-r0 - (1.0 - r) * math.cos(theta0 + s0 + 2 * j * theta0)) / r
        if -1.0 <= arg <= 1.0:
            raise InvalidTableError(
                f"disk chord {j} of the fixed point meets the scatterer at n={n}, epsilon={epsilon}"
            )
    return r


class BirkhoffCoords(NamedTuple):
    """Area-preserving coordinates (s, r = cos theta)."""

    s: float
    r: float


# ---------------------------------------------------------------------------
# backend-generic wall-to-wall formulas
# ---------------------------------------------------------------------------


class FloatBackend:
    """The ``math`` module's ``cos`` and ``acos``, NaN passing through as
    NaN, with the ``ValueError`` of an arccos argument off [-1, 1] (a missed
    wall) raised as ``NoCollisionError``; ``island_sampler`` runs the map on
    ``math`` itself."""

    cos = staticmethod(math.cos)

    @staticmethod
    def acos(u):
        try:
            return math.acos(u)
        except ValueError:
            side = "exceeds 1" if u > 1.0 else "below -1"
            raise NoCollisionError(f"arccos argument {u!r} {side}") from None


class JetBackend:
    """Degree-3 truncated Taylor arithmetic.

    ``cos`` and ``acos`` come from ``jets``, imported on the first lookup of
    one of them and then kept on the instance.
    """

    def __getattr__(self, name):
        from . import jets

        self.cos, self.acos = jets.jet_cos, jets.jet_acos
        return object.__getattribute__(self, name)


FLOAT_BACKEND = FloatBackend()
JET_BACKEND = JetBackend()


def half_period_formula(s, r, n: int, R: float, lib=FLOAT_BACKEND):
    """Reflection-composed half-period map in Birkhoff coordinates.

    Applies n-1 disk bounces, the scatterer entry and exit, then the mirror
    symmetry (s, r) -> (-s, -r).  Its square is the full period map of the
    tangent table.  Works unwrapped: near the reference orbit no angle
    reduction is ever required, which keeps the formulas smooth.

    The n-1 bounces advance s by 2 theta each, to s1.  The entry angle has
    cos theta2 = u2 = (-r - (1-R) cos(theta + s1)) / R, the chord argument
    of ``tangency_radius_b``; the entry point sits at the polar angle
    gamma = -pi + s1 + theta + theta2 about the scatterer center.  The exit
    is the entry's time reverse from a = pi - gamma, with cos theta3 = u3 =
    -R u2 - (1-R) cos(theta2 - a), and -u3 is the returned r.
    """
    cos, acos = lib.cos, lib.acos
    theta = acos(r)
    s1 = s + 2.0 * (n - 1) * theta
    u2 = (-r - (1.0 - R) * cos(theta + s1)) / R
    theta2 = acos(u2)
    a = 2.0 * pi - theta2 - theta - s1
    u3 = -R * u2 - (1.0 - R) * cos(theta2 - a)
    theta3 = acos(u3)
    return -(theta2 + theta3 - a), -u3
