"""Closed-form perturbative corrections around the variational reference.

The second-, third- and fourth-order corrections to the optimized
zeroth-order free energy share a common structure,

    c_n = K_n * Omega * u**n * R~_n(x),    u = lam / (m**2 Omega**3),

a rational constant times the frequency, the n-th power of the
dimensionless coupling ``u`` (at most 1/6 at the gap root, where
m**2 Omega**3 >= 6 lam coth(x/2)) and a dimensionless temperature factor
that depends only on ``x = beta * Omega``: ``R~_n = R_n`` for n = 2, 3
and ``R_4 / x`` for n = 4.  Each factor is evaluated in one of two
regimes:

* ``x <= 45`` -- one closed form over ``W = (sinh(x/2) / (x/2))**2`` and
  ``H = sinh(x) / x``, ``R_n = P_n(x, W, H) / (W**n * x**k)``.  Every
  coefficient of the polynomial ``P_n`` is positive, so every term is,
  and the sum has condition number 1: nothing cancels at small x, where
  the same factor written over ``q = exp(-x)`` loses its O(1) terms down
  to O(x**4).  W and H tend to 1 as x -> 0, so nothing underflows down
  to the smallest x, and both stay below 1e20 at x = 45;
* ``x > 45`` -- the ``q -> 0`` asymptotic form (all neglected terms are
  suppressed by at least ``exp(-45)``, far below double precision).

Each regime returns a regular part ``P`` and a pole order ``k`` with
``R_n = P / x**k``; ``x**k`` joins lam, m and Omega in the binary
exponent of the result.  At high temperature c2, c3 and c4 tend to
-T/12, T/6 and -53T/72, so a correction is finite wherever F0 is.

``TestHyperbolicForm`` in ``tests/test_series.py`` substitutes
``sinh(x/2)**2 = (1 - q)**2 / (4q)`` and ``sinh(x) = (1 - q**2) / (2q)``,
``q = exp(-x)``, into each ``P_n`` in exact rational arithmetic and
matches the recorded q-polynomial of R_n, the form the imaginary-time
integrals give, coefficient for coefficient.  Those q-polynomials are
checked against the integrals evaluated exactly (see ``diagrams``);
the asymptotes are their q**0 terms and also the diagrams' exact sector
limits (``TestSectorLimit`` in ``tests/test_diagrams.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ModelParams, check_frequency
from .errors import ValidationError
from .variational import solve_gap

__all__ = [
    "FreeEnergySeries",
    "closed_correction",
    "series_eval",
    "temperature_factor",
]

# Above X_ASYMPTOTIC the finite-temperature terms are smaller than machine
# epsilon relative to the surviving q**0 part.
X_ASYMPTOTIC = 45.0

VALID_ORDERS = (0, 2, 3, 4)


def _hyperbolic(x: float) -> tuple[float, float]:
    """(W, H) = ((sinh(x/2) / (x/2))**2, sinh(x) / x), both 1 at x -> 0."""
    s = math.sinh(0.5 * x)
    r = s / (0.5 * x)
    return r * r, r * math.sqrt(1.0 + s * s)


def _factor_2(x: float) -> tuple[float, int]:
    """R_2(x) as (P, k) with R_2 = P / x**k: second-order temperature factor."""
    if x > X_ASYMPTOTIC:
        return 8.0, 0
    w, h = _hyperbolic(x)
    return (96.0 + 160.0 * h + 16.0 * x * x * h * w) / (w * w), 3


def _factor_3(x: float) -> tuple[float, int]:
    """R_3(x) as (P, k) with R_3 = P / x**k: third-order temperature factor."""
    if x > X_ASYMPTOTIC:
        return 96.0, 0
    w, h = _hyperbolic(x)
    x2w = x * x * w
    num = 2560.0 + 6912.0 * (h + w) + x2w * (256.0 + w * (2112.0 + 96.0 * x2w))
    return num / (w * w * w), 4


def _factor_4(x: float) -> tuple[float, int]:
    """R_4(x) as (P, k) with R_4 = P / x**k: fourth-order temperature factor."""
    if x > X_ASYMPTOTIC:
        return 202496.0, -1
    w, h = _hyperbolic(x)
    x2w = x * x * w
    num = (10838016.0 + 39370752.0 * h + w * (64819200.0 + 51695616.0 * h)
           + x2w * (2211840.0 + 13851648.0 * w + h * (2875392.0 + 11748352.0 * w)
                    + x2w * (36864.0 + w * (110592.0 + 404992.0 * h))))
    w2 = w * w
    return num / (w2 * w2), 4


_FACTORS = {2: _factor_2, 3: _factor_3, 4: _factor_4}


def _scaled(what: str, x: float, mantissa: float, exponent: int) -> float:
    """mantissa * 2**exponent, or a ValidationError if that overflows."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        raise ValidationError(
            f"{what} is outside double precision at beta*Omega = {x:.3g}"
        ) from None


def temperature_factor(order: int, x: float) -> float:
    """Evaluate the dimensionless factor R_n(x) for n in {2, 3, 4}.

    Exposed mainly for tests; the physical corrections come from
    ``closed_correction`` below.
    """
    if order not in _FACTORS:
        raise ValidationError(f"no temperature factor of order {order}")
    if not (x > 0.0) or not math.isfinite(x):
        raise ValidationError(f"x = beta*Omega must be positive and finite, got {x}")
    regular, pole = _FACTORS[order](x)
    x_m, e_x = math.frexp(x)
    return _scaled(f"R_{order}", x, regular / x_m**pole, -pole * e_x)


# K_n of c_n = K_n * Omega * u**n * R~_n(x), and the extra pole order of
# R~_n over R_n (see the module docstring).
_PREFACTORS = {2: (-3.0 / 64.0, 0), 3: (9.0 / 512.0, 0), 4: (-3.0 / 32768.0, 1)}


def closed_correction(params: ModelParams, omega_big: float, order: int) -> float:
    """Closed-form correction c_n of order n in {2, 3, 4} at trial frequency Omega.

    c2 < 0, c3 > 0 and c4 < 0.  lam, m, Omega and x = beta*Omega enter as
    mantissa and binary exponent, and one ``ldexp`` scales the product, so
    neither a power of lam, m or Omega nor the pole 1/x**k of R~_n leaves
    double range on the way.  Only a correction that is itself outside
    double precision is a ValidationError; at a gap root none is.
    """
    if order not in _PREFACTORS:
        raise ValidationError(f"no closed-form correction of order {order}")
    check_frequency(omega_big)
    x = params.beta * omega_big
    prefactor, extra_pole = _PREFACTORS[order]
    regular, pole = _FACTORS[order](x)
    pole += extra_pole
    x_m, e_x = math.frexp(x)
    lam, e_lam = math.frexp(params.lam)
    m, e_m = math.frexp(params.m)
    w, e_w = math.frexp(omega_big)
    u = lam / (m * m * w**3)
    exponent = e_w - pole * e_x + order * (e_lam - 2 * e_m - 3 * e_w)
    return _scaled(f"c{order}", x,
                   prefactor * w * (regular / x_m**pole) * u**order, exponent)


@dataclass(frozen=True)
class FreeEnergySeries:
    """The variational term, corrections, and partial sums at one point.

    Corrections beyond the requested order are ``None``; partial sums
    are exposed as properties and are ``None`` whenever a needed
    correction is missing.
    """

    params: ModelParams
    omega_big: float
    f0: float
    c2: float | None = None
    c3: float | None = None
    c4: float | None = None

    @property
    def f2(self) -> float | None:
        if self.c2 is None:
            return None
        return self.f0 + self.c2

    @property
    def f3(self) -> float | None:
        f2 = self.f2
        if f2 is None or self.c3 is None:
            return None
        return f2 + self.c3

    @property
    def f4(self) -> float | None:
        f3 = self.f3
        if f3 is None or self.c4 is None:
            return None
        return f3 + self.c4


def series_eval(params: ModelParams, max_order: int = 4) -> FreeEnergySeries:
    """Solve the gap equation once and evaluate corrections up to max_order.

    The trial frequency is shared by every order: it is fixed at the
    zeroth-order stationary point and never re-optimized.
    """
    if max_order not in VALID_ORDERS:
        raise ValidationError(
            f"max_order must be one of {VALID_ORDERS}, got {max_order}"
        )
    solution = solve_gap(params)
    values: dict[int, float] = {}
    for order in (2, 3, 4):
        if order <= max_order:
            values[order] = closed_correction(params, solution.omega_big, order)
    return FreeEnergySeries(
        params=params,
        omega_big=solution.omega_big,
        f0=solution.f0,
        c2=values.get(2),
        c3=values.get(3),
        c4=values.get(4),
    )
