"""Nonlinear stability of the tangent-table orbit: reduced map, order-3 Taylor
data, and the first Birkhoff (twist) coefficient.

The full period map factors as the square of the reflection-composed half
period ``M = reflection o exit o entry o disk``; its fixed point is the
detuned orbit's initial state.  The twist pipeline takes one point at a
time,

    reduced map --(jet arithmetic)--> TaylorJet3 --(c-terms)--> A,

and each step returns its result or raises the ``BilliardError`` that
refuses the point.  A least-squares cubic fit to the map, in 50-digit
arithmetic, audits every Taylor coefficient (``fd_taylor_jet``), and the
closed-form leading order of A is available independently.
``island_sampler`` iterates the float full-period map from a ring of seeds
and returns its report with the cloud.

Rotation-number convention: the twist formula uses mu = arctan(v/u) with
lambda = u + i*v the upper eigenvalue of the linearized half-period map.
For the near-parabolic tangent orbits u < 0, so mu is a small *negative*
angle tending to 0 with the detuning, while the principal argument of lambda
itself sits near pi.  ``BirkhoffReport`` holds both, and the ``birkhoff``
subcommand prints mu.

The pipeline runs on Python floats: ``jets`` is pure Python and is imported
inside the Taylor-data functions that use it, so ``island_sampler``, which
iterates the float map, runs without it, and neither needs NumPy.
"""

from __future__ import annotations

import functools
import math
import random
from itertools import repeat
from typing import NamedTuple

from .billiard_map import (
    FLOAT_BACKEND,
    JET_BACKEND,
    BirkhoffCoords,
    MPBackend,
    half_period_formula,
    tangency_radius_b,
)
from .errors import (
    ClassificationError,
    DomainError,
    NoCollisionError,
    NonEllipticNormalizationError,
    PrecisionError,
    ResonanceError,
)

#: tolerance on |lambda^m - 1| below which a low-order resonance is declared
RESONANCE_TOL = 1e-8

#: relative disagreement between jet and finite-difference coefficients that
#: voids the extraction
CROSS_CHECK_TOL = 1e-5

#: grid spacing and working precision of the finite-difference audit
FD_STEP = 1e-12
FD_DPS = 50


class TaylorJet3(NamedTuple):
    """Degree-3 Taylor data of a planar map about a point: the jets of its
    two outputs, s and r, in the displacements (ds, dr) of the input.

    Each jet's constant term is the map's value at the point, and the others
    are plain Taylor coefficients, factorials included (see ``jets.Jet2``).
    """

    s: Jet2
    r: Jet2

    def linear(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The Jacobian at the point, as a pair of rows."""
        return self.s.c[1:3], self.r.c[1:3]

    def trace(self) -> float:
        return self.s.c[1] + self.r.c[2]

    def max_rel_disagreement(self, other: "TaylorJet3") -> float:
        return max(
            abs(a - b) / max(abs(a), abs(b), 1.0)
            for a, b in zip(self.s.c + self.r.c, other.s.c + other.r.c)
        )


class BirkhoffReport(NamedTuple):
    """First twist coefficient and the quantities entering it."""

    A: float
    im_c21: float
    abs_c20_sq: float
    abs_c02_sq: float
    mu: float  # arctan-convention rotation number used in the twist formula
    mu_arg: float  # principal argument of the upper eigenvalue, in (0, pi)


class ReducedMap:
    """The reflection-composed half-period map of a tangent table in (s, r).

    ``apply`` evaluates the composition in any math backend (floats,
    truncated Taylor jets, mpmath), and ``fixed_point`` is the detuned
    orbit's initial state.
    """

    def __init__(self, n: int, epsilon: float):
        if n < 3:
            raise DomainError(f"need n >= 3, got {n}")
        if epsilon <= 0.0:
            raise DomainError(f"need epsilon > 0, got {epsilon}")
        if epsilon >= math.pi - math.pi / n:
            # theta0 = pi/n + eps would leave the reflection angles' range (0, pi)
            raise DomainError(f"need epsilon < pi - pi/n at n={n}, got {epsilon}")
        self.n = n
        self.epsilon = epsilon
        self.R = tangency_radius_b(n, epsilon)
        self.theta0 = math.pi / n + epsilon
        self.s0 = -math.pi + math.pi / n + epsilon * (1.0 - n)
        self.r0 = math.cos(self.theta0)

    @property
    def fixed_point(self) -> BirkhoffCoords:
        return BirkhoffCoords(self.s0, self.r0)

    def apply(self, s, r, lib=FLOAT_BACKEND):
        return half_period_formula(s, r, self.n, self.R, lib)


def taylor_jet(rmap: ReducedMap, cross_check: bool = False) -> TaylorJet3:
    """Order-3 Taylor data of the reduced map at its fixed point.

    One push of degree-3 truncated polynomials through the map composition
    (exact up to rounding).  The push is refused with ``NoCollisionError``
    if it leaves the arccos domain or a coefficient is not finite, and with
    ``DomainError`` if the point is not fixed.  With ``cross_check`` the
    audit ``fd_taylor_jet``, a least-squares cubic fit in 50-digit
    arithmetic, re-derives every coefficient and a disagreement beyond 1e-5
    relative raises ``PrecisionError``.
    """
    from .jets import Jet2

    s0, r0 = rmap.fixed_point
    try:
        # the module global, looked up per push, so a patched map is the one called
        jet = TaylorJet3(*half_period_formula(
            Jet2.variable(s0, 0), Jet2.variable(r0, 1), rmap.n, rmap.R, JET_BACKEND
        ))
    except NoCollisionError:
        jet = None
    if jet is None or not all(map(math.isfinite, jet.s.c + jet.r.c)):
        raise NoCollisionError("an arccos argument of the jet push leaves (-1, 1)")
    residual = max(abs(jet.s.value - s0), abs(jet.r.value - r0))
    if residual > 1e-9:
        raise DomainError(f"point is not fixed (residual {residual:.3g})")
    if cross_check:
        worst = jet.max_rel_disagreement(fd_taylor_jet(rmap))
        if worst > CROSS_CHECK_TOL:
            raise PrecisionError(
                f"jet and finite-difference coefficients disagree by {worst:.3g}"
            )
    return jet


#: the audit's sample offsets, in units of ``FD_STEP``, about the fixed point
_GRID = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]


@functools.cache
def _fit_matrix() -> list:
    """Rows of the least-squares cubic fit (X^T X)^-1 X^T on the unit 5 x 5
    grid, one per monomial, in ``FD_DPS`` digits: float rows would not sum to
    exactly zero, and h^-3 would lift the constant term's residue to 1e19."""
    from mpmath import mp

    from .jets import MONOMIALS

    with mp.workdps(FD_DPS):
        X = mp.matrix([[i**a * j**b for a, b in MONOMIALS] for i, j in _GRID])
        return ((X.T * X) ** -1 * X.T).tolist()


def fd_taylor_jet(rmap: ReducedMap) -> TaylorJet3:
    """Audit oracle: a least-squares cubic fit, in 50-digit arithmetic, to the
    bit-identical map sampled on a 5 x 5 grid of spacing ``FD_STEP`` about
    its fixed point.

    The precision absorbs the cancellation of so small a step, at which the
    terms beyond cubic reach a coefficient only through factors h^2 = 1e-24.
    The constant terms are the map's value at the point.
    """
    from mpmath import mp

    from .jets import MONOMIALS, Jet2

    fit, lib = _fit_matrix(), MPBackend(mp)
    with mp.workdps(FD_DPS):
        h = mp.mpf(FD_STEP)
        s0, r0 = (mp.mpf(x) for x in rmap.fixed_point)
        samples = [rmap.apply(s0 + i * h, r0 + j * h, lib) for i, j in _GRID]
        sides = (
            [float(mp.fdot(row, side) / h ** (a + b)) for row, (a, b) in zip(fit, MONOMIALS)]
            for side in zip(*samples)
        )
        return TaylorJet3(*(Jet2(tuple(side)) for side in sides))


# ---------------------------------------------------------------------------
# twist coefficient
# ---------------------------------------------------------------------------


def c_terms(jet: TaylorJet3) -> tuple[float, float, float]:
    """The real normal-form combinations (Im c21, |c20|^2, |c02|^2).

    Requires a01*b10 < 0 so the normalization square roots are real.
    """
    _, a10, a01, a20, a11, a02, a30, a21, a12, a03 = jet.s.c
    _, b10, b01, b20, b11, b02, b30, b21, b12, b03 = jet.r.c
    if not a01 * b10 < 0.0:
        raise NonEllipticNormalizationError(
            f"need a01*b10 < 0, got a01={a01!r}, b10={b10!r}"
        )
    im_c21 = (
        a10
        * (
            -a12
            + 3.0 * b10 * a03 / a01
            - 3.0 * a01 * b30 / b10
            + b12
        )
        - b10
        * (
            a12
            - 3.0 * a01 * a30 / b10
            - a01 * b21 / b10
            + 3.0 * b03
        )
    ) / 8.0
    sq_ab = math.sqrt(-a01 / b10)
    sq_ba = math.sqrt(-b10 / a01)
    plus_a = (b10 / a01) * a02 + a20 + b11
    plus_b = (a01 / b10) * b20 + b02 + a11
    minus_a = (b10 / a01) * a02 + a20 - b11
    minus_b = (a01 / b10) * b20 + b02 - a11
    abs_c20_sq = (sq_ab * plus_a**2 + sq_ba * plus_b**2) / 16.0
    abs_c02_sq = (sq_ab * minus_a**2 + sq_ba * minus_b**2) / 16.0
    return im_c21, abs_c20_sq, abs_c02_sq


def _rotation_angles(trace: float) -> tuple[float, float]:
    """(arctan-convention mu, principal argument) for an elliptic trace."""
    u = trace / 2.0
    v = math.sqrt(max(1.0 - u * u, 0.0))
    mu_arg = math.atan2(v, u)
    mu = math.atan(v / u) if u != 0.0 else math.pi / 2.0
    return mu, mu_arg


def twist_from_c_terms(
    im_c21: float, abs_c20_sq: float, abs_c02_sq: float, mu: float
) -> float:
    """The twist combination

        Im c21 + sin(mu)/(cos(mu) - 1) * (3 |c20|^2
            + (2 cos(mu) - 1)/(2 cos(mu) + 1) * |c02|^2).
    """
    cm, sm = math.cos(mu), math.sin(mu)
    return im_c21 + sm / (cm - 1.0) * (
        3.0 * abs_c20_sq + (2.0 * cm - 1.0) / (2.0 * cm + 1.0) * abs_c02_sq
    )


def birkhoff_A(jet: TaylorJet3) -> BirkhoffReport:
    """First Birkhoff coefficient of an elliptic, nonresonant fixed point
    with the given Taylor data (see ``twist_from_c_terms``)."""
    tr = jet.trace()
    if abs(tr) >= 2.0 - 1e-12:
        raise ClassificationError(
            f"twist coefficient needs an elliptic linear part, trace = {tr!r}"
        )
    mu, mu_arg = _rotation_angles(tr)
    lam = complex(math.cos(mu_arg), math.sin(mu_arg))
    if abs(lam**3 - 1.0) < RESONANCE_TOL or abs(lam**4 - 1.0) < RESONANCE_TOL:
        raise ResonanceError(
            f"eigenvalue argument {mu_arg!r} sits on a low-order resonance"
        )
    im_c21, c20_sq, c02_sq = c_terms(jet)
    A = twist_from_c_terms(im_c21, c20_sq, c02_sq, mu)
    return BirkhoffReport(
        A=A,
        im_c21=im_c21,
        abs_c20_sq=c20_sq,
        abs_c02_sq=c02_sq,
        mu=mu,
        mu_arg=mu_arg,
    )


def rotation_number_leading(n: int, epsilon: float) -> float:
    """Leading order of the rotation angle ``mu`` that ``birkhoff_A`` reports:

        -sqrt(2 eps)/sin(pi/n) * sqrt(n (n sin(2 pi/n)
            - (1 + 2 cos(pi/n) + cos(2 pi/n))))
    """
    c = math.pi / n
    rad = n * (n * math.sin(2.0 * c) - (1.0 + 2.0 * math.cos(c) + math.cos(2.0 * c)))
    return -math.sqrt(2.0 * epsilon) / math.sin(c) * math.sqrt(rad)


# ---------------------------------------------------------------------------
# closed-form leading order of the twist coefficient
# ---------------------------------------------------------------------------


def twist_limit(n: int) -> float:
    """The detuning-free part of the twist coefficient, lim eps^2 * A(n, eps):

        5 csc^5(pi/2n) sec^3(pi/2n) sin^(5/2)(pi/n) (cos(pi/2n) - n sin(pi/2n))^2
        / (192 n^2 sqrt(n sin(2pi/n) - (1 + 2cos(pi/n) + cos(2pi/n))))
        * sqrt(sin(2pi/n) / (n sin(pi/n) - (1 + cos(pi/n))))
    """
    if n < 3:
        raise DomainError(f"undefined for n < 3, got {n}")
    h = math.pi / (2.0 * n)
    c = math.pi / n
    num = (
        5.0
        * math.sin(h) ** -5
        * math.cos(h) ** -3
        * math.sin(c) ** 2.5
        * (math.cos(h) - n * math.sin(h)) ** 2
    )
    den = 192.0 * n * n * math.sqrt(
        n * math.sin(2.0 * c) - (1.0 + 2.0 * math.cos(c) + math.cos(2.0 * c))
    )
    tail = math.sqrt(
        math.sin(2.0 * c) / (n * math.sin(c) - (1.0 + math.cos(c)))
    )
    return num / den * tail


def _over_eps_squared(limit: float, epsilon: float) -> float:
    """limit/epsilon^2, refused where epsilon^2 underflows to 0 or the
    quotient overflows."""
    eps2 = epsilon * epsilon
    A = limit / eps2 if eps2 else math.inf
    if not math.isfinite(A):
        raise DomainError(f"the twist limit over epsilon^2 is not finite at epsilon = {epsilon!r}")
    return A


def closed_form_A(n: int, epsilon: float) -> float:
    """Leading-order twist coefficient, twist_limit(n)/epsilon^2; refused
    where epsilon^2 underflows to 0 or the quotient overflows."""
    return _over_eps_squared(twist_limit(n), epsilon)


def closed_form_A_large_n(n: int, epsilon: float) -> float:
    """Large-n expansion 5/(24 eps^2) * ((pi-2)/pi^2 + (pi-1)/(6 n^2)),
    refused as ``closed_form_A`` is."""
    if n < 3:
        raise DomainError(f"undefined for n < 3, got {n}")
    limit = 5.0 / 24.0 * ((math.pi - 2.0) / math.pi**2 + (math.pi - 1.0) / (6.0 * n * n))
    return _over_eps_squared(limit, epsilon)


# ---------------------------------------------------------------------------
# island evidence sampler
# ---------------------------------------------------------------------------


class IslandReport(NamedTuple):
    """Outcome of iterating the full period map near the fixed point."""

    max_excursion: float
    escaped: bool
    escape_seed: int | None = None
    escape_iteration: int | None = None


def island_sampler(
    n: int,
    epsilon: float,
    radius: float,
    iterations: int,
    seeds: int = 8,
    seed: int = 0,
) -> tuple[IslandReport, list[tuple[float, float]]]:
    """Iterate the full period map from a ring of initial conditions.

    Starts ``seeds`` points on a circle of the given radius around the fixed
    point in (s, r), at phases 2 pi * ``random.Random(seed).random()`` drawn
    in seed order, applies the squared reduced map ``iterations`` times and
    tracks the maximal distance from the fixed point.  Leaving the chart (a
    ray missing the scatterer) is recorded as an escape; the reported seed is
    the lowest-numbered one that escaped.  Returns the report and the visited
    (s, r) iterates, a list of pairs, seed by seed, each up to its escape.

    Each seed is iterated alone on a pair of Python floats, two calls of
    ``half_period_formula`` per iteration, and stops at its first
    ``NoCollisionError``.  The map is the one straight-line formula that the
    jet push and the audit also run, called through this module's global
    name, so a patched map sees every half period.  Each half period runs on
    the ``math`` module, C builtins only; where ``math.acos`` raises
    ``ValueError`` (a grazing or missing ray) that half period runs again on
    ``FLOAT_BACKEND``, which clamps or refuses it, so the iterates are
    FLOAT_BACKEND's bit for bit.  At the widths a request asks for (up to a
    few hundred seeds) this costs no more than stepping them together as
    arrays, and it needs no NumPy.
    """
    if iterations < 1 or seeds < 1:
        raise DomainError(f"need iterations >= 1 and seeds >= 1, got {iterations}, {seeds}")
    if not radius >= 0.0:
        raise DomainError(f"need radius >= 0, got {radius}")
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    rmap = ReducedMap(n, epsilon)
    s0, r0 = rmap.fixed_point
    rng = random.Random(seed)
    phases = [2.0 * math.pi * rng.random() for _ in range(seeds)] if radius > 0.0 else [0.0]
    # the module global, looked up per request, so a patched map is the one
    # called; math.acos raises ValueError only where FLOAT_BACKEND clamps or
    # refuses, so only those half periods run again on the fallback
    half, R, lib, fallback = half_period_formula, rmap.R, math, FLOAT_BACKEND
    max_excursion, escape, cloud = 0.0, None, []
    for index, phase in enumerate(phases):
        s, r = s0 + radius * math.cos(phase), r0 + radius * math.sin(phase)
        orbit = []
        try:
            for it in range(iterations):
                try:
                    s, r = half(s, r, n, R, lib)
                except ValueError:
                    s, r = half(s, r, n, R, fallback)
                try:
                    s, r = half(s, r, n, R, lib)
                except ValueError:
                    s, r = half(s, r, n, R, fallback)
                orbit.append((s, r))
        except NoCollisionError:
            if escape is None:
                escape = (index, it)
        excursion = max(map(math.dist, orbit, repeat(rmap.fixed_point)), default=0.0)
        max_excursion = max(max_excursion, excursion)
        cloud += orbit
    escape_seed, escape_iteration = escape or (None, None)
    report = IslandReport(
        max_excursion=max_excursion,
        escaped=escape is not None,
        escape_seed=escape_seed,
        escape_iteration=escape_iteration,
    )
    return report, cloud
