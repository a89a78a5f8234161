"""Closed-form perturbative corrections around the variational reference.

The second-, third- and fourth-order corrections to the optimized
zeroth-order free energy share a common structure: a coupling/frequency
prefactor multiplying a dimensionless temperature factor ``R_n(x)`` that
depends only on ``x = beta * Omega``.  Written over hyperbolic functions
the factors overflow at moderate ``x`` and cancel catastrophically at
small ``x``, so each one is evaluated in one of three regimes:

* ``x < 1e-2`` -- a short Laurent series in ``x`` (the direct expression
  is a 0/0-like ratio at high temperature),
* moderate ``x`` -- an exact polynomial in ``q = exp(-x)`` divided by
  ``(1 - q)**(2n)``, which neither overflows nor loses precision,
* ``x > 45`` -- the ``q -> 0`` asymptotic form (all neglected terms are
  suppressed by at least ``exp(-45)``, far below double precision).

The integer coefficient tables were derived symbolically from the
underlying imaginary-time integrals and cross-checked against direct
numerical quadrature of those integrals (see the ``diagrams`` module).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from .core import ModelParams, check_frequency
from .errors import ValidationError
from .variational import solve_gap

__all__ = [
    "FreeEnergySeries",
    "c2_closed",
    "c3_closed",
    "c4_closed",
    "series_eval",
    "temperature_factor",
]

# Below this value of x = beta*Omega the q-polynomial ratio cancels to
# more digits than double precision can spare; switch to the Laurent
# series.  Above X_ASYMPTOTIC the finite-temperature terms are smaller
# than machine epsilon relative to the surviving q**0 part.
X_SERIES_THRESHOLD = 1e-2
X_ASYMPTOTIC = 45.0

VALID_ORDERS = (0, 2, 3, 4)


def _factor_2(x: float) -> float:
    """R_2(x): second-order temperature factor."""
    if x < X_SERIES_THRESHOLD:
        return 256.0 / x**3 + x * (32.0 / 15.0 - (64.0 / 945.0) * x * x)
    if x > X_ASYMPTOTIC:
        return 8.0
    q = math.exp(-x)
    num = 8.0 + q * (64.0 + q * (96.0 * x + q * (-64.0 + q * -8.0)))
    return num / (-math.expm1(-x)) ** 4


def _factor_3(x: float) -> float:
    """R_3(x): third-order temperature factor."""
    if x < X_SERIES_THRESHOLD:
        return 16384.0 / x**4 + 1024.0 / 15.0 + (1024.0 / 945.0) * x * x
    if x > X_ASYMPTOTIC:
        return 96.0
    q = math.exp(-x)
    x2 = x * x
    a2 = 256.0 * x2 + 3456.0 * x - 96.0
    a3 = 2048.0 * x2 - 3072.0
    a4 = 256.0 * x2 - 3456.0 * x - 96.0
    num = 96.0 + q * (1536.0 + q * (a2 + q * (a3 + q * (a4 + q * (1536.0 + q * 96.0)))))
    return num / (-math.expm1(-x)) ** 6


def _factor_4(x: float) -> float:
    """R_4(x): fourth-order temperature factor."""
    if x < X_SERIES_THRESHOLD:
        return 166723584.0 / x**4 + 3407872.0 / 5.0 - (262144.0 / 315.0) * x * x
    if x > X_ASYMPTOTIC:
        return 202496.0 * x
    q = math.exp(-x)
    a0 = 202496.0 * x
    a1 = (110592.0 * x + 4659200.0) * x
    a2 = (((36864.0 * x + 1437696.0) * x + 13188096.0) * x + 5186048.0) * x
    a3 = (((2064384.0 * x + 16809984.0) * x + 11071488.0) * x - 25159680.0) * x
    a4 = (6635520.0 * x * x - 48740352.0) * x * x
    a5 = (((2064384.0 * x - 16809984.0) * x + 11071488.0) * x + 25159680.0) * x
    a6 = (((36864.0 * x - 1437696.0) * x + 13188096.0) * x - 5186048.0) * x
    a7 = (110592.0 * x - 4659200.0) * x
    a8 = -202496.0 * x
    num = a0 + q * (a1 + q * (a2 + q * (a3 + q * (a4 + q * (a5 + q * (a6 + q * (a7 + q * a8)))))))
    return num / (-math.expm1(-x)) ** 8


_FACTORS = {2: _factor_2, 3: _factor_3, 4: _factor_4}


@contextmanager
def _in_double_range(what: str, x: float):
    """Report a float overflow or an underflow to zero divisor as a ValidationError.

    Products and quotients that overflow come out as +-inf instead of
    raising; ``_finite`` turns such a result into an OverflowError, so it is
    reported here too, before any oracle runs on it.
    """
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise ValidationError(
            f"{what} is outside double precision at beta*Omega = {x:.3g}"
        ) from None


def _finite(value: float) -> float:
    """value, or an OverflowError for an inf or nan left by float arithmetic."""
    if not math.isfinite(value):
        raise OverflowError
    return value


def temperature_factor(order: int, x: float) -> float:
    """Evaluate the dimensionless factor R_n(x) for n in {2, 3, 4}.

    Exposed mainly for tests; the physical corrections are the
    ``c*_closed`` functions below.
    """
    if order not in _FACTORS:
        raise ValidationError(f"no temperature factor of order {order}")
    if not (x > 0.0) or not math.isfinite(x):
        raise ValidationError(f"x = beta*Omega must be positive and finite, got {x}")
    with _in_double_range(f"R_{order}", x):
        return _finite(_FACTORS[order](x))


def c2_closed(params: ModelParams, omega_big: float) -> float:
    """Second-order correction; strictly negative."""
    check_frequency(omega_big)
    lam, m = params.lam, params.m
    x = params.beta * omega_big
    with _in_double_range("c2", x):
        pref = -3.0 * lam * lam / (64.0 * m**4 * omega_big**5)
        return _finite(pref * _factor_2(x))


def c3_closed(params: ModelParams, omega_big: float) -> float:
    """Third-order correction; strictly positive."""
    check_frequency(omega_big)
    lam, m = params.lam, params.m
    x = params.beta * omega_big
    with _in_double_range("c3", x):
        pref = 9.0 * lam**3 / (512.0 * m**6 * omega_big**8)
        return _finite(pref * _factor_3(x))


def c4_closed(params: ModelParams, omega_big: float) -> float:
    """Fourth-order correction; strictly negative.

    The raw expression carries an extra 1/beta relative to the lower
    orders; combining it with R_4 (which grows linearly in x at low
    temperature) leaves a finite zero-temperature limit.  In the
    asymptotic regime R_4(x)/x is the constant 202496, used directly
    because 202496 x overflows for x above about 9e302.
    """
    check_frequency(omega_big)
    lam, m = params.lam, params.m
    x = params.beta * omega_big
    with _in_double_range("c4", x):
        pref = -3.0 * lam**4 / (32768.0 * m**8 * omega_big**11)
        return _finite(pref * (202496.0 if x > X_ASYMPTOTIC else _factor_4(x) / x))


_CORRECTIONS = {2: c2_closed, 3: c3_closed, 4: c4_closed}


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
            values[order] = _CORRECTIONS[order](params, solution.omega_big)
    return FreeEnergySeries(
        params=params,
        omega_big=solution.omega_big,
        f0=solution.f0,
        c2=values.get(2),
        c3=values.get(3),
        c4=values.get(4),
    )
