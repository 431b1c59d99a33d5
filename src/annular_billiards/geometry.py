"""Closed-form geometry of the annular table.

The table is the unit disk with a small circular scatterer inside.  All
lengths are in units of the outer radius.  The canonical Cartesian frame
puts the disk center at the origin and the scatterer on the chord joining
the last and first outer collision points of the reference orbit; that
chord is vertical at x = -cos(k*pi/n), so a symmetric table is literally
invariant under y -> -y and the tangent configuration has its scatterer
center on the negative x-axis.

The tangent table's radius, ``tangency_radius_b``, lives with its map in
``billiard_map``.  Only ``_tangent_radius``, which the two type (b)
branches of ``TableParams`` call, imports it, so the type (a) tables load
no map.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, InvalidTableError, SingularConfigurationError

#: absolute tolerance for interiority/tangency comparisons on the unit disk
GEOM_TOL = 1e-12


def max_radius_star(n: int, k: int, delta: float) -> float:
    """Largest radius keeping a star-orbit scatterer clear of the other chords.

    For k >= 2 the binding constraint is the nearest other chord of the star
    polygon, at distance sin(2*pi/n) * (cos(k*pi/n)*tan(pi/n) - delta) from
    the displaced chord midpoint.  At delta = 0 this reduces to
    2*cos(k*pi/n)*sin^2(pi/n).
    """
    if n < 5 or k < 2 or 2 * k > n:
        raise DomainError(f"need n >= 5 and 2 <= k <= n/2, got n={n}, k={k}")
    if math.gcd(k, n) != 1:
        raise DomainError(f"need gcd(k, n) = 1, got n={n}, k={k}")
    cap = math.cos(k * math.pi / n) * math.tan(math.pi / n)
    if not 0.0 <= delta < cap:
        raise DomainError(
            f"need 0 <= delta < cos(k pi/n) tan(pi/n) = {cap:.6g}, got {delta}"
        )
    return math.sin(2.0 * math.pi / n) * (cap - delta)


def max_radius(n: int, k: int, delta: float) -> float:
    """Largest admissible radius of a type (a) scatterer displaced by delta
    along the chord of angle k*pi/n: the disk bound, and for k >= 2 the
    smaller of it and ``max_radius_star``.

    The disk bound keeps the scatterer inside the unit disk.  Its center sits
    at distance sqrt(delta^2 + cos^2(k pi/n)) from the origin, so the bound
    is 1 - sqrt(delta^2 + cos^2(k pi/n)).  That difference cancels at large
    n, so the same number is evaluated as
    (sin^2(k pi/n) - delta^2) / (1 + sqrt(delta^2 + cos^2(k pi/n))), which
    keeps full precision.
    """
    if k == 1:
        if n < 3:
            raise DomainError(f"need n >= 3, got {n}")
        if not 0.0 <= delta < math.sin(math.pi / n):
            raise DomainError(f"need 0 <= delta < sin(pi/n), got delta={delta}")
    else:
        star = max_radius_star(n, k, delta)
    angle = k * math.pi / n
    s = math.sin(angle)
    disk = (s - delta) * (s + delta) / (1.0 + math.sqrt(delta * delta + math.cos(angle) ** 2))
    return disk if k == 1 else min(star, disk)


def _tangent_radius(n: int, epsilon: float) -> float:
    """``tangency_radius_b``, refusing a detuning with no tangent radius in
    (0, 1) as an inadmissible table."""
    from .billiard_map import tangency_radius_b

    try:
        return tangency_radius_b(n, epsilon)
    except SingularConfigurationError as exc:
        raise InvalidTableError(str(exc)) from None


class _TableFields(NamedTuple):
    n: int
    k: int
    R: float
    delta: float
    epsilon: float


class TableParams(_TableFields):
    """Full parametrization of one annular table / orbit family.

    n        number of outer-wall reflection slots (n >= 3)
    k        winding number (1 <= k <= n/2, coprime with n)
    R        scatterer radius
    delta    displacement of the scatterer along the orbit chord, toward the
             collision point indexed n-1 (type (a) only)
    epsilon  reflection-angle detuning: 0 for type (a), > 0 for type (b)

    The detuning names the family.  Type (a): scatterer perpendicular to one
    chord of the (star) polygon of reflection angle k*pi/n, displaced by
    delta along it.  Type (b), the tangent table: scatterer tangent to the
    outer circle, perpendicular to the chord of the angle pi/n + epsilon.

    Construction runs ``validate`` (``_replace`` too), so every instance is
    an admissible table.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, R: float, delta: float, epsilon: float):
        self = tuple.__new__(cls, (n, k, R, delta, epsilon))
        self.validate()
        return self

    @classmethod
    def _make(cls, iterable) -> "TableParams":
        return cls(*iterable)

    @staticmethod
    def type_a(n: int, k: int, R: float, delta: float = 0.0) -> "TableParams":
        return TableParams(n=n, k=k, R=R, delta=delta, epsilon=0.0)

    @staticmethod
    def type_b(n: int, epsilon: float) -> "TableParams":
        if epsilon <= 0.0:
            raise InvalidTableError(f"type (b) needs epsilon > 0, got {epsilon}")
        return TableParams(n=n, k=1, R=_tangent_radius(n, epsilon), delta=0.0, epsilon=epsilon)

    def validate(self) -> None:
        n, k = self.n, self.k
        if n < 3:
            raise InvalidTableError(f"need n >= 3, got {n}")
        if k < 1 or 2 * k > n or math.gcd(k, n) != 1:
            raise InvalidTableError(f"need 1 <= k <= n/2 coprime with n, got k={k}, n={n}")
        if not 0.0 < self.R < 1.0:
            raise InvalidTableError(f"need 0 < R < 1, got R={self.R}")
        if self.epsilon > 0.0:
            if k != 1 or self.delta != 0.0:
                raise InvalidTableError("type (b) requires k=1, delta=0, epsilon>0")
            r = _tangent_radius(n, self.epsilon)
            if abs(r - self.R) > GEOM_TOL:
                raise InvalidTableError(
                    f"type (b) radius must equal the tangency radius {r!r}, got {self.R!r}"
                )
            return
        if self.delta < 0.0:
            raise InvalidTableError(f"need delta >= 0, got {self.delta}")
        if not self.epsilon >= 0.0:
            raise InvalidTableError(f"need epsilon >= 0, got {self.epsilon}")
        cap = max_radius(n, k, self.delta)
        if self.R > cap + GEOM_TOL:
            raise InvalidTableError(
                f"R={self.R:.6g} exceeds the admissible maximum {cap:.6g} "
                f"for n={n}, k={k}, delta={self.delta:.6g}"
            )
        if k > 1 and self.R >= max_radius_star(n, k, self.delta):
            raise InvalidTableError(
                f"R={self.R:.6g} touches another chord of the orbit "
                f"for n={n}, k={k}, delta={self.delta:.6g}"
            )


class ScattererPose(NamedTuple):
    """Scatterer circle in the unit-disk Cartesian frame; ``center`` is an
    (x, y) pair of floats."""

    center: tuple[float, float]
    radius: float

    @property
    def center_distance(self) -> float:
        return math.hypot(*self.center)

    def interiority_defect(self) -> float:
        """|center| + radius - 1; <= 0 means interior, 0 means tangent."""
        return self.center_distance + self.radius - 1.0


def scatterer_pose(params: TableParams) -> ScattererPose:
    """Place the scatterer for the given table in the canonical frame.

    Type (a): center on the vertical chord x = -cos(k*pi/n), displaced by
    delta toward the upper endpoint (the collision point indexed n-1).
    Type (b): center on the negative x-axis at distance 1 - R_b (tangent to
    the unit circle at (-1, 0)).
    """
    if params.epsilon > 0.0:
        pose = ScattererPose(center=(-(1.0 - params.R), 0.0), radius=params.R)
    else:
        x = -math.cos(params.k * math.pi / params.n)
        pose = ScattererPose(center=(x, params.delta), radius=params.R)
    if pose.interiority_defect() > GEOM_TOL:
        raise InvalidTableError(
            f"scatterer pokes out of the disk by {pose.interiority_defect():.3g}"
        )
    return pose


def chord_lines(n: int, k: int) -> list[tuple[float, float, float]]:
    """The n chord lines of the reference polygon as (ux, uy, c): points P on
    the line satisfy <P, u> = c, with u the unit normal through the caustic
    touch point."""
    out = []
    r = math.cos(k * math.pi / n)
    # chord j joins the outer points at angles s0 + 2jk*pi/n and s0 + 2(j+1)k*pi/n
    s0 = -math.pi + k * math.pi / n
    for j in range(n):
        a = s0 + (2 * j + 1) * k * math.pi / n
        out.append((math.cos(a), math.sin(a), r))
    return out


def clearance_from_other_chords(params: TableParams) -> float:
    """Distance from the scatterer center to the nearest chord it does not sit on.

    Numerical check of the claim behind ``max_radius_star``: the returned
    clearance must be >= R for the orbit segments to miss the scatterer.
    """
    pose = scatterer_pose(params)
    cx, cy = pose.center
    lines = chord_lines(params.n, params.k)
    # the scatterer's own chord is the last one (joining collisions n-1 and 0)
    own = lines[-1]
    best = math.inf
    for ux, uy, c in lines[:-1]:
        d = abs(ux * cx + uy * cy - c)
        best = min(best, d)
    # guard: confirm the pose really sits on its own chord
    ux, uy, c = own
    if abs(ux * cx + uy * cy - c) > 1e-9:
        raise InvalidTableError("scatterer center is off its own chord")
    return best
