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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, DomainError, GrazingError
from .geometry import max_radius
from .orbits import OrbitRecord

#: half-width of the parabolic dead zone around |trace| = 2
CLASSIFY_TOL = 1e-9


class Classification(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"


def classify(trace: float, tol: float = CLASSIFY_TOL) -> Classification:
    """|trace| < 2: elliptic, > 2: hyperbolic, within tol of 2: parabolic.

    A non-finite trace (NaN fails every comparison) raises
    ``ClassificationError``.
    """
    if abs(trace) < 2.0 - tol:
        return Classification.ELLIPTIC
    if 2.0 + tol < abs(trace) < math.inf:
        return Classification.HYPERBOLIC
    if abs(trace) <= 2.0 + tol:
        return Classification.PARABOLIC
    raise ClassificationError(f"non-finite trace {trace!r}")


@dataclass(frozen=True)
class StabilityReport:
    """Monodromy trace, classification, eigenvalue pair and rotation number.

    ``mu`` is the principal eigenvalue argument in (0, pi) (trace = 2 cos mu),
    present only for elliptic orbits.
    """

    trace: float
    classification: Classification
    eigenvalues: tuple[complex, complex]
    mu: float | None


def bounce_jacobian(tau, kappa, kappa1, theta, theta1) -> np.ndarray:
    """Derivative of one bounce: flight tau, signed wall curvatures kappa at
    the launch point and kappa1 at the arrival point (-1 on the outer circle,
    +1/R on the scatterer), reflection angles theta -> theta1.

    Scalars give one (2, 2) matrix; arrays of m bounces give an (m, 2, 2)
    stack of the same matrices (``np.sin`` equals ``math.sin`` bit for bit).
    """
    st1 = np.sin(theta1)
    grazing = np.abs(st1) < 1e-12
    if np.count_nonzero(grazing):
        worst = float(np.asarray(st1)[grazing][0])
        raise GrazingError(f"sin(theta1) = {worst!r} too close to zero")
    st = np.sin(theta)
    entries = -np.array(
        [
            (tau * kappa + st) / st1,
            tau / st1,
            (tau * kappa * kappa1 + kappa1 * st) / st1 + kappa,
            tau * kappa1 / st1 + 1.0,
        ]
    )
    return entries.reshape(4, -1).T.reshape(entries.shape[1:] + (2, 2))


def _diag(a, b) -> np.ndarray:
    """diag(a, b), stacked over the broadcast shape of a and b."""
    a, b = np.broadcast_arrays(a, b)
    D = np.zeros(a.shape + (2, 2))
    D[..., 0, 0] = a
    D[..., 1, 1] = b
    return D


def bounce_jacobian_birkhoff(tau, kappa, kappa1, theta, theta1) -> np.ndarray:
    """Same bounce derivative rescaled to (s, cos theta); determinant 1."""
    J = bounce_jacobian(tau, kappa, kappa1, theta, theta1)
    st, st1 = np.sin(theta), np.sin(theta1)
    return _diag(1.0, st1) @ J @ _diag(1.0, 1.0 / st)


def monodromy(orbit: OrbitRecord, birkhoff_frame: bool = False) -> np.ndarray:
    """Ordered product of the per-bounce Jacobians around a periodic orbit.

    All bounce matrices come from one stacked call; the product is taken
    one (2, 2) ``@`` per bounce, in orbit order.
    """
    factory = bounce_jacobian_birkhoff if birkhoff_frame else bounce_jacobian
    theta = [p.theta for p in orbit.points]
    kappa = orbit.curvatures
    bounces = factory(
        np.array(orbit.flights),
        np.array(kappa),
        np.array(kappa[1:] + kappa[:1]),
        np.array(theta),
        np.array(theta[1:] + theta[:1]),
    )
    M = np.eye(2)
    for J in bounces:
        M = J @ M
    return M


def stability_report(M: np.ndarray, tol: float = CLASSIFY_TOL) -> StabilityReport:
    tr = float(np.trace(M))
    cls = classify(tr, tol)
    half = tr / 2.0
    disc = half * half - 1.0
    if disc < 0.0:
        im = math.sqrt(-disc)
        ev = (complex(half, im), complex(half, -im))
        mu = math.atan2(im, half) if cls is Classification.ELLIPTIC else None
    else:
        root = math.sqrt(disc)
        ev = (complex(half + root), complex(half - root))
        mu = None
    return StabilityReport(tr, cls, ev, mu)


def orbit_stability(orbit: OrbitRecord) -> StabilityReport:
    return stability_report(monodromy(orbit))


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


def admissible_interval(
    n: int, k: int, delta: float, grid: int = 1000
) -> tuple[float, float] | None:
    """Radius interval on which the orbit is linearly stable, or None.

    Candidate range is (bifurcation radius, admissible maximum].  Ellipticity
    is then verified by evaluating the closed-form trace on a grid; if the
    trace leaves (-2, 2) inside the candidate range, the interval is trimmed
    to the verified part (bisection on trace = -2).
    """
    lo = bifurcation_radius(n, k, delta)
    hi = max_radius(n, k, delta)
    if not lo < hi:
        return None
    rs = np.linspace(lo, hi, grid + 1)[1:]
    traces = np.array([trace_closed_form(n, k, R, delta) for R in rs])
    inside = np.abs(traces) < 2.0
    if not inside.any() or not inside[0]:
        return None
    if inside.all():
        return (lo, hi)
    first_exit = int(np.argmin(inside))  # first False
    a, b = rs[first_exit - 1], rs[first_exit]
    for _ in range(80):
        m = 0.5 * (a + b)
        if abs(trace_closed_form(n, k, m, delta)) < 2.0:
            a = m
        else:
            b = m
    return (lo, a)


def lemma_f(x: float) -> float:
    """f(x) = (x/pi) * arctan(2 x sin^2(pi/x)); strictly increasing on
    (1, inf) with limit 2*pi, which bounds the admissible winding numbers."""
    if x <= 1.0:
        raise DomainError(f"need x > 1, got {x}")
    return (x / math.pi) * math.atan(2.0 * x * math.sin(math.pi / x) ** 2)


def star_inequality(n: int, k: int) -> bool:
    """Whether 2 n sin^2(pi/n) > tan(k pi/n), the small-displacement
    ellipticity condition for winding number k."""
    return 2.0 * n * math.sin(math.pi / n) ** 2 > math.tan(k * math.pi / n)


def min_period_for_k(k: int, scan_limit: int = 10**6) -> int | None:
    """Smallest n admitting linearly stable orbits of winding number k.

    Returns None for k >= 7: the inequality is equivalent to k < f(n) with
    ``lemma_f`` increasing and bounded by 2*pi < 7, so no n can work.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if k >= 7:
        return None
    for n in range(2 * k + 1, scan_limit + 1):
        if star_inequality(n, k):
            return n
    return None


def trace_b_coefficient(n: int) -> float:
    """First-order coefficient c1 in trace = 2 - c1*epsilon for the tangent table:

        c1 = 16 n (cos(pi/n) - n cot(pi/n) + n cos(pi/n) cot(pi/n)) / (cos(pi/n) - 1)
    """
    c = math.pi / n
    cot = math.cos(c) / math.sin(c)
    return (
        16.0
        * n
        * (math.cos(c) - n * cot + n * math.cos(c) * cot)
        / (math.cos(c) - 1.0)
    )


def trace_b_expansion(n: int, epsilon: float) -> float:
    """First-order trace of the tangent-table orbit: 2 - c1(n)*epsilon."""
    if n < 3:
        raise DomainError(f"need n >= 3, got {n}")
    return 2.0 - trace_b_coefficient(n) * epsilon


def epsilon_star(n: int) -> float:
    """Leading-order detuning threshold where the trace reaches -2 (the
    elliptic window of the tangent table is 0 < epsilon < epsilon_star)."""
    return 4.0 / trace_b_coefficient(n)


def epsilon_star_large_n(n: int) -> float:
    """Large-n asymptote pi^2 / (4 n^3 (pi - 2)) of ``epsilon_star``."""
    return math.pi**2 / (4.0 * n**3 * (math.pi - 2.0))


def delta_star(n: int, tol: float = 1e-6) -> float:
    """Displacement where the bifurcation radius meets the admissible maximum
    (k = 1), closing the window of stable radii; solved by bisection."""
    from .geometry import max_radius_delta

    def g(d: float) -> float:
        return bifurcation_radius(n, 1, d) - max_radius_delta(n, d)

    lo, hi = 0.0, math.sin(math.pi / n) * 0.999999
    if g(lo) >= 0.0:
        raise DomainError(f"no crossing: stability window empty already at delta=0 (n={n})")
    if g(hi) <= 0.0:
        raise DomainError(f"no crossing below delta = sin(pi/n) for n={n}")
    while hi - lo > tol * 0.5:
        m = 0.5 * (lo + hi)
        if g(m) < 0.0:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def symplectic_defect(M: np.ndarray) -> float:
    """|det(M) - 1|, the deviation from area preservation."""
    return abs(float(np.linalg.det(M)) - 1.0)
