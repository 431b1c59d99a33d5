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
``tangency_radius_b``, and its half-period map is one straight-line formula,
``half_period_formula``, written generically over a small math backend: the
float map, the truncated-Taylor-jet map and the high-precision audit map run
the same operations in the same order.  Its independent oracle, the
Cartesian ray tracer ``generic_step``, lives in ``orbits``, its one caller;
the two routes are cross-checked in the test suite.

This module imports only the standard library: the jet backend loads
``jets`` on its first use, so a program that iterates the float map, such as
``section``, does not load it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, NoCollisionError, SingularConfigurationError

#: tolerance for clamping arccos arguments that leave [-1, 1] through rounding
ACOS_CLAMP_TOL = 1e-10


def tangency_radius_b(n: int, epsilon: float) -> float:
    """Scatterer radius keeping tangency when the angle is detuned to pi/n + eps.

    With theta0 = pi/n + epsilon the chord of the detuned orbit crosses the
    negative x-axis at distance cos(theta0)/cos(n*epsilon) from the origin,
    which yields R_b = 1 + cos(theta0)/cos(n*theta0).
    """
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    theta0 = math.pi / n + epsilon
    cn = math.cos(n * theta0)
    if abs(cn) < 1e-9:
        raise SingularConfigurationError(
            f"cos(n*theta0) ~ 0 at n={n}, epsilon={epsilon}"
        )
    r = 1.0 + math.cos(theta0) / cn
    if not 0.0 < r < 1.0:
        raise SingularConfigurationError(
            f"tangency radius {r:.6g} outside (0, 1) at n={n}, epsilon={epsilon}"
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
    """Plain double-precision math, with an ``acos`` that clamps a rounding
    excess of at most ``ACOS_CLAMP_TOL`` onto [-1, 1] and refuses a larger
    one with ``NoCollisionError`` (a missed wall).

    Inside [-1, 1], and for NaN, it computes what the ``math`` module does,
    so a caller may run a formula on ``math`` itself, whose ``acos`` raises
    ``ValueError`` exactly where this one clamps or refuses, and evaluate
    again with this backend only then; ``island_sampler`` does.
    """

    pi = math.pi
    cos = staticmethod(math.cos)
    sin = staticmethod(math.sin)

    @staticmethod
    def acos(u):
        if -1.0 <= u <= 1.0:
            return math.acos(u)
        # out of range, or NaN, which passes through as NaN
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
        self.pi = mp.mpf(math.pi)
        self.cos = mp.cos
        self.sin = mp.sin
        self.acos = mp.acos


FLOAT_BACKEND = FloatBackend()
JET_BACKEND = JetBackend()


def half_period_formula(s, r, n: int, R: float, lib=FLOAT_BACKEND):
    """Reflection-composed half-period map in Birkhoff coordinates.

    Applies n-1 disk bounces, the scatterer entry and exit, then the mirror
    symmetry (s, r) -> (-s, -r).  Its square is the full period map of the
    tangent table.  Works unwrapped: near the reference orbit no angle
    reduction is ever required, which keeps the formulas smooth.

    The n-1 bounces advance s by 2 theta each.  The entry angle theta2 is
    arccos((-cos(theta) - (1-R) cos(theta + s1)) / R), and the entry point
    sits at the polar angle gamma = -pi + s1 + theta + theta2 about the
    scatterer center, at the clockwise arc length pi + R*(pi - gamma); the
    exit is the time reverse of the entry, from a = pi - gamma.
    """
    cos, acos, pi = lib.cos, lib.acos, lib.pi
    theta = acos(r)
    s1 = s + 2.0 * (n - 1) * theta
    theta2 = acos((-cos(theta) - (1.0 - R) * cos(theta + s1)) / R)
    a = (pi + R * (2.0 * pi - theta2 - theta - s1) - pi) / R
    theta3 = acos(-R * cos(theta2) - (1.0 - R) * cos(theta2 - a))
    return -(theta2 + theta3 - a), -cos(theta3)

