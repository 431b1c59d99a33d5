"""Closed-form geometry of the annular table.

The table is the unit disk with a small circular scatterer inside.  All
lengths are in units of the outer radius.  The canonical Cartesian frame
puts the disk center at the origin and the scatterer on the chord joining
the last and first outer collision points of the reference orbit; that
chord is vertical at x = -cos(k*pi/n), so a symmetric table is literally
invariant under y -> -y and the tangent configuration has its scatterer
center on the negative x-axis.

Each table family is admitted in one place, which refuses an inadmissible
table with ``InvalidTableError``: a chord-mounted table (n, k, delta) by
``max_radius``, a tangent table (n, epsilon) by ``tangency_radius_b``,
which lives with its map in ``billiard_map``.  The type (b) branches of
``TableParams`` import it where they run, so the type (a) tables load no
map.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidTableError

#: absolute tolerance for interiority/tangency comparisons on the unit disk
GEOM_TOL = 1e-12


def max_radius_star(n: int, k: int, delta: float) -> float:
    """Largest radius keeping a star-orbit scatterer clear of the other chords,
    for a table (n, k >= 2, delta) that ``max_radius`` admits.

    The binding constraint is the nearest other chord of the star polygon,
    at distance sin(2*pi/n) * (cos(k*pi/n)*tan(pi/n) - delta) from the
    displaced chord midpoint.  At delta = 0 this reduces to
    2*cos(k*pi/n)*sin^2(pi/n).
    """
    return math.sin(2.0 * math.pi / n) * (math.cos(k * math.pi / n) * math.tan(math.pi / n) - delta)


def max_radius(n: int, k: int, delta: float) -> float:
    """Largest admissible radius of a type (a) scatterer displaced by delta
    along the chord of angle k*pi/n: the disk bound, and for k >= 2 the
    smaller of it and ``max_radius_star``.

    This is the one admission of a chord-mounted table (n, k, delta): every
    route that builds one calls it, and it refuses with
    ``InvalidTableError`` an n below 3, a k outside 1..n/2 or sharing a
    factor with n, and a delta outside [0, cap), where the cap is sin(pi/n)
    for k = 1 and cos(k pi/n) tan(pi/n), at which ``max_radius_star`` is 0,
    for k >= 2.

    The disk bound keeps the scatterer inside the unit disk.  Its center sits
    at distance sqrt(delta^2 + cos^2(k pi/n)) from the origin, so the bound
    is 1 - sqrt(delta^2 + cos^2(k pi/n)).  That difference cancels at large
    n, so the same number is evaluated as
    (sin^2(k pi/n) - delta^2) / (1 + sqrt(delta^2 + cos^2(k pi/n))), which
    keeps full precision.
    """
    if n < 3:
        raise InvalidTableError(f"need n >= 3, got {n}")
    if k < 1 or 2 * k > n or math.gcd(k, n) != 1:
        raise InvalidTableError(f"need 1 <= k <= n/2 coprime with n, got k={k}, n={n}")
    angle = k * math.pi / n
    cap = math.sin(math.pi / n) if k == 1 else math.cos(angle) * math.tan(math.pi / n)
    if not 0.0 <= delta < cap:
        raise InvalidTableError(f"need 0 <= delta < {cap!r} at n={n}, k={k}, got delta={delta}")
    s = math.sin(angle)
    disk = (s - delta) * (s + delta) / (1.0 + math.sqrt(delta * delta + math.cos(angle) ** 2))
    return disk if k == 1 else min(max_radius_star(n, k, delta), disk)


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
        from .billiard_map import tangency_radius_b

        return TableParams(n=n, k=1, R=tangency_radius_b(n, epsilon), delta=0.0, epsilon=epsilon)

    def validate(self) -> None:
        """Admit the table's family, then its radius: a type (a) table
        through ``max_radius``, a type (b) one, of nonzero detuning,
        through ``billiard_map.tangency_radius_b``."""
        n, k, R, delta, epsilon = self
        if epsilon == 0.0:
            cap = max_radius(n, k, delta)
        elif k != 1 or delta != 0.0:
            raise InvalidTableError("type (b) requires k=1, delta=0, epsilon>0")
        else:
            from .billiard_map import tangency_radius_b

            tangent = tangency_radius_b(n, epsilon)
        if not 0.0 < R < 1.0:
            raise InvalidTableError(f"need 0 < R < 1, got R={R}")
        if epsilon != 0.0:
            if abs(tangent - R) > GEOM_TOL:
                raise InvalidTableError(
                    f"type (b) radius must equal the tangency radius {tangent!r}, got {R!r}"
                )
        elif R > cap + GEOM_TOL:
            raise InvalidTableError(
                f"R={R:.6g} exceeds the admissible maximum {cap:.6g} "
                f"for n={n}, k={k}, delta={delta:.6g}"
            )
        elif k > 1 and R >= max_radius_star(n, k, delta):
            raise InvalidTableError(
                f"R={R:.6g} touches another chord of the orbit "
                f"for n={n}, k={k}, delta={delta:.6g}"
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
    It measures an admitted table; ``max_radius`` admits, not this check.
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
