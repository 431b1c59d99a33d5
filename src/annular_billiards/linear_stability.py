"""Per-bounce Jacobians, monodromy products, closed-form traces and stability regions.

Conventions
-----------
``bounce_jacobian`` returns the per-bounce derivative in (s, theta) in the
orientation convention under which the product of disk bounces is
[[1, -2(n-1)], [0, 1]].  That matrix equals T * J * T with T = diag(1, -1)
and J the raw derivative of the wall-to-wall maps, so any product around a
*closed* orbit has the same trace and determinant as the raw monodromy (the
conjugations telescope).  Individual bounce matrices have determinant
sin(theta)/sin(theta1); ``bounce_jacobian_birkhoff`` rescales to the
(s, cos theta) normalization where every bounce has determinant 1.

A 2x2 matrix is a pair of rows of Python floats, and ``monodromy`` multiplies
one orbit's bounces in plain float arithmetic.  It forms each distinct bounce
once: a run of equal bounces, such as the n - 1 chords of a polygon side,
reuses one matrix.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import TYPE_CHECKING

from .errors import ClassificationError, DomainError, GrazingError
from .geometry import max_radius

if TYPE_CHECKING:
    from .orbits import OrbitRecord

#: half-width of the parabolic dead zone around |trace| = 2
CLASSIFY_TOL = 1e-9

#: largest n that ``min_period_for_k`` tries
MIN_PERIOD_SCAN_LIMIT = 10**6


class Classification(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


def classify(trace: float) -> Classification:
    """|trace| < 2: elliptic, > 2: hyperbolic, within ``CLASSIFY_TOL`` of 2:
    parabolic.

    A non-finite trace (NaN fails every comparison) raises
    ``ClassificationError``.
    """
    if abs(trace) < 2.0 - CLASSIFY_TOL:
        return Classification.ELLIPTIC
    if 2.0 + CLASSIFY_TOL < abs(trace) < math.inf:
        return Classification.HYPERBOLIC
    if abs(trace) <= 2.0 + CLASSIFY_TOL:
        return Classification.PARABOLIC
    raise ClassificationError(f"non-finite trace {trace!r}")


#: a 2x2 matrix as a pair of rows of floats
Matrix2 = tuple[tuple[float, float], tuple[float, float]]


def bounce_jacobian(tau, kappa, kappa1, theta, theta1) -> Matrix2:
    """Derivative of one bounce: flight tau, signed wall curvatures kappa at
    the launch point and kappa1 at the arrival point (-1 on the outer circle,
    +1/R on the scatterer), reflection angles theta -> theta1.  A bounce
    arriving too close to tangential raises ``GrazingError``."""
    st, st1 = math.sin(theta), math.sin(theta1)
    if abs(st1) < 1e-12:
        raise GrazingError(f"sin(theta1) = {st1!r} too close to zero")
    return (
        (-((tau * kappa + st) / st1), -(tau / st1)),
        (-((tau * kappa * kappa1 + kappa1 * st) / st1 + kappa), -(tau * kappa1 / st1 + 1.0)),
    )


def bounce_jacobian_birkhoff(tau, kappa, kappa1, theta, theta1) -> Matrix2:
    """Same bounce derivative rescaled to (s, cos theta), diag(1, sin theta1)
    J diag(1, 1/sin theta); determinant 1."""
    (a, b), (c, d) = bounce_jacobian(tau, kappa, kappa1, theta, theta1)
    st1, scale = math.sin(theta1), 1.0 / math.sin(theta)
    return (a, b * scale), (st1 * c, st1 * d * scale)


def monodromy(orbit: OrbitRecord) -> Matrix2:
    """Ordered product of the per-bounce Jacobians around a periodic orbit,
    in orbit order, on floats.  The first bounce that arrives too close to
    tangential refuses the orbit with ``GrazingError``.

    Each distinct bounce is formed once: a bounce whose inputs equal the
    previous bounce's reuses its matrix, which has the same bits.  A type (a)
    orbit has six distinct bounces whatever its period.
    """
    thetas = [theta for _, _, theta in orbit.points]
    kappa = orbit.curvatures
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    last = None
    for bounce in zip(orbit.flights, kappa, kappa[1:] + kappa[:1], thetas, thetas[1:] + thetas[:1]):
        if bounce != last:
            (j00, j01), (j10, j11) = bounce_jacobian(*bounce)
            last = bounce
        a, b, c, d = j00 * a + j01 * c, j00 * b + j01 * d, j10 * a + j11 * c, j10 * b + j11 * d
    return (a, b), (c, d)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def trace_closed_form(n: int, k: int, R: float, delta: float) -> float:
    """Monodromy trace of the full period for the chord-perpendicular orbit:

        2 - 16 n delta^2 (n R^2 - R sin(k pi/n) - n delta^2) / (R^2 sin^2(k pi/n))
    """
    if R <= 0.0:
        raise DomainError(f"need R > 0, got {R}")
    s = math.sin(k * math.pi / n)
    return 2.0 - 16.0 * n * delta**2 * (n * R * R - R * s - n * delta**2) / (
        R * R * s * s
    )


def bifurcation_radius(n: int, k: int, delta: float) -> float:
    """Radius of the saddle-center bifurcation,

        (sin(k pi/n) + sqrt(sin^2(k pi/n) + 4 n^2 delta^2)) / (2 n),

    the positive root of n R^2 - R sin(k pi/n) - n delta^2 = 0 where the
    trace passes through 2.
    """
    s = math.sin(k * math.pi / n)
    return (s + math.sqrt(s * s + 4.0 * n * n * delta * delta)) / (2.0 * n)


def admissible_interval(n: int, k: int, delta: float) -> tuple[float, float] | None:
    """Radius interval on which the orbit is linearly stable, or None.

    For delta > 0 the closed-form trace strictly decreases in R, so the
    elliptic radii are exactly (bifurcation radius, R_-2), where the trace
    reaches -2 at

        R_-2 = 2 n delta^2 / (2 n delta - sin(k pi/n))

    if 2 n delta > sin(k pi/n), and never otherwise.  The window ends at the
    admissible maximum or at R_-2, whichever comes first.  At delta = 0 the
    trace is 2 for every R: no window.  The ``region`` command's
    ``stable_window`` is whether the k = 1 window is open.
    """
    cap = max_radius(n, k, delta)
    if delta == 0.0:
        return None
    lo = bifurcation_radius(n, k, delta)
    excess = 2.0 * n * delta - math.sin(k * math.pi / n)
    hi = min(cap, 2.0 * n * delta * delta / excess) if excess > 0.0 else cap
    return (lo, hi) if lo < hi else None


def lemma_f(x: float) -> float:
    """f(x) = (x/pi) * arctan(2 x sin^2(pi/x)); strictly increasing on
    (1, inf) with limit 2*pi, which bounds the admissible winding numbers."""
    if x <= 1.0:
        raise DomainError(f"need x > 1, got {x}")
    s2 = math.sin(math.pi / x) ** 2
    if s2 < sys.float_info.min:
        raise DomainError(f"sin^2(pi/x) = {s2!r} is below the normal floats at x = {x!r}")
    return (x / math.pi) * math.atan(2.0 * x * s2)


def star_inequality(n: int, k: int) -> bool:
    """Whether 2 n sin^2(pi/n) > tan(k pi/n), the small-displacement
    ellipticity condition for winding number k."""
    return 2.0 * n * math.sin(math.pi / n) ** 2 > math.tan(k * math.pi / n)


def min_period_for_k(k: int) -> int | None:
    """Smallest n admitting linearly stable orbits of winding number k.

    Returns None for k >= 7: the inequality is equivalent to k < f(n) with
    ``lemma_f`` increasing and bounded by 2*pi < 7, so no n can work.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if k >= 7:
        return None
    for n in range(2 * k + 1, MIN_PERIOD_SCAN_LIMIT + 1):
        if star_inequality(n, k):
            return n
    return None


def epsilon_star(n: int) -> float:
    """Detuning 4/c1(n) where the first-order trace 2 - c1*epsilon of the
    tangent table reaches -2, with

        c1 = 16 n (cos(pi/n) - n cot(pi/n) + n cos(pi/n) cot(pi/n)) / (cos(pi/n) - 1)

    This sets the scale of the tangent table's elliptic window, not its end:
    the full-period trace is (reduced trace)^2 - 2 >= -2, so it touches -2
    near epsilon_star (at 0.977 epsilon_star for n = 7, 0.951 for n = 12)
    and turns back up.  For n = 4..40 the orbit is still elliptic at
    1.2 epsilon_star and hyperbolic at 2 epsilon_star.  At n = 3 it exists
    only below 0.9555 epsilon_star, where a disk chord of the fixed point
    starts to meet the scatterer, so both of those tables are refused.
    """
    c = math.pi / n
    cot = math.cos(c) / math.sin(c)
    return 4.0 / (16.0 * n * (math.cos(c) - n * cot + n * math.cos(c) * cot) / (math.cos(c) - 1.0))


def epsilon_star_large_n(n: int) -> float:
    """Large-n asymptote pi^2 / (4 n^3 (pi - 2)) of ``epsilon_star``."""
    return math.pi**2 / (4.0 * n**3 * (math.pi - 2.0))


def delta_star(n: int) -> float:
    """Displacement where the bifurcation radius meets the admissible maximum
    (k = 1), closing the window of stable radii.

    With s = sin(pi/n) and c = cos(pi/n), the cap R = 1 - sqrt(delta^2 + c^2)
    solves n R^2 - R s - n delta^2 = 0 at R* = n s^2 / (2n - s), so
    delta*^2 = (1 - R*)^2 - c^2.  That difference cancels for large n; it is
    evaluated as the product

        delta*^2 = s^3 (n s/(1 + c) - 1) (1 - R* + c) / ((1 + c) (2n - s)).
    """
    max_radius(n, 1, 0.0)  # the admission of the family's n
    s, c = math.sin(math.pi / n), math.cos(math.pi / n)
    r_star = n * s * s / (2.0 * n - s)
    num = s**3 * (n * s / (1.0 + c) - 1.0) * (1.0 - r_star + c)
    return math.sqrt(num / ((1.0 + c) * (2.0 * n - s)))


def symplectic_defect(M: Matrix2) -> float:
    """|det(M) - 1|, the deviation from area preservation."""
    (a, b), (c, d) = M
    return abs(a * d - b * c - 1.0)
