"""Variational (lowest-order) free energy and the trial-frequency gap equation.

The Gaussian trial functional at frequency Omega is

    Fbar(Omega) = (1/beta) ln(2 sinh(beta Omega/2))
                  + (1/2) m (omega^2 - Omega^2) G_tt + 3 lambda G_tt^2,

with the equal-time propagator G_tt = coth(beta Omega/2) / (2 m Omega).
Stationarity d Fbar / d Omega^2 = 0 is the gap equation

    Omega^2 = omega^2 + (6 lambda / (m^2 Omega)) coth(beta Omega / 2).

Its residual r(Omega) = Omega^2 - omega^2 - (6 lambda/(m^2 Omega)) coth(beta Omega/2)
is increasing in Omega, and d Fbar / d Omega^2 = (positive factor) * r, so
the unique positive root is the minimum of Fbar (Fbar -> +inf both as
Omega -> 0+ and Omega -> inf for lambda > 0).  At the root the
variational free energy collapses to

    F0 = (1/beta) ln(2 sinh(beta Omega/2)) - 3 lambda G_tt^2.

The same Omega is reused, unchanged, by all higher-order corrections.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import ModelParams, Propagator, coth_half, harmonic_free_energy
from .errors import ConvergenceError, ValidationError

__all__ = [
    "VariationalSolution",
    "fbar",
    "solve_gap",
]

# The solver stops once the scaled residual is within STOP_ULPS ulp of its largest term.
STOP_ULPS = 4.0
# Hard cap on Newton steps; the climb from the lower bound takes at most 7.
MAX_STEPS = 100


@dataclass(frozen=True)
class VariationalSolution:
    """Gap-equation root and F0 there.

    residual is |Omega^2 - omega^2 - (6 lambda/(m^2 Omega)) coth(beta Omega/2)|
    at the returned Omega; iterations counts residual evaluations.
    """

    omega_big: float
    f0: float
    residual: float
    iterations: int


def _x_over_sinh(x: float) -> float:
    """x / sinh(x) = 2x e^{-x} / (1 - e^{-2x}) for x > 0, overflow-safe."""
    q = math.exp(-x)
    return x * (2.0 * q) / -math.expm1(-2.0 * x) if q > 0.0 else 0.0


def _representable(params: ModelParams, omega_big: float | None = None) -> float:
    """a = 6 lambda/m^2, once the point is representable in double precision.

    Raises ValidationError unless a is a normal double and omega^2 (and
    Omega^2, when given) is finite.
    """
    m2 = params.m * params.m
    a = 6.0 * params.lam / m2 if m2 > 0.0 else math.inf
    top = params.omega if omega_big is None else max(params.omega, omega_big)
    if not (sys.float_info.min <= a < math.inf and math.isfinite(top * top)):
        trial = "" if omega_big is None else f", Omega = {omega_big!r}"
        raise ValidationError(
            "point is not representable in double precision: "
            f"6 lambda/m^2 = {a!r}, omega = {params.omega!r}{trial}"
        )
    return a


def fbar(params: ModelParams, omega_big: float) -> float:
    """Trial free energy Fbar(Omega) for any Omega > 0 (not only at the root)."""
    g = Propagator(params.m, omega_big, params.beta).equal_time()
    _representable(params, omega_big)
    return (
        harmonic_free_energy(omega_big, params.beta)
        + 0.5 * params.m * (params.omega**2 - omega_big**2) * g
        + 3.0 * params.lam * g * g
    )


def _scaled_residual(params: ModelParams, a: float, om: float) -> tuple[float, float, float]:
    """rho = r(Omega)/Omega^2 = 1 - t1 - t2, its largest term, and Omega rho'(Omega).

    t1 = omega^2/Omega^2 and t2 = a coth(x/2)/Omega^3 with a = 6 lambda/m^2
    and x = beta Omega; near the root both lie in [0, 1], so nothing
    overflows.  The slope Omega rho' = 2 t1 + t2 (3 + x/sinh x) is positive.
    """
    x = params.beta * om
    u = params.omega / om
    t1 = u * u
    t2 = a / om / om / om * coth_half(x)
    rho = 1.0 - t1 - t2
    if math.isnan(rho):
        raise ValidationError(
            f"gap residual is not representable in double precision at Omega = {om!r}"
        )
    return rho, max(1.0, t1, t2), 2.0 * t1 + t2 * (3.0 + _x_over_sinh(x))


def _solve(params: ModelParams) -> tuple[float, float, int]:
    """Newton on rho from the analytic lower bound L of its root.

    Returns (Omega, rho(Omega), residual evaluations).  With coth(x/2)
    between max(1, 2/x) and 1 + 2/x, the root lies in [L, sqrt(3) L] for
    L = max(omega, a^(1/3), (2a/beta)^(1/4)): rho(L) <= 0, and
    rho(sqrt(3) L) >= 1 - 1/3 - 1/(3 sqrt 3) - 1/9 ~ 0.36.  rho is increasing
    and concave: -omega^2/Omega^2 is concave, and coth(beta Omega/2)/Omega^3
    is a product of two positive, decreasing, convex functions.  So Newton
    from any point at or left of the root climbs monotonically and never
    overshoots.  In floats a ** (1/3) can put L a few 1e-14 above the root
    (a < 1); the first step then lands at or below it.  sqrt(3) L is never
    evaluated: it only bounds the error at the step cap.
    """
    a = _representable(params)
    lo = max(params.omega, a ** (1.0 / 3.0), 2.0**0.25 * a**0.25 / params.beta**0.25)
    eps = sys.float_info.epsilon
    om = lo
    for evals in range(1, MAX_STEPS + 1):
        r, scale, slope = _scaled_residual(params, a, om)
        if abs(r) <= STOP_ULPS * eps * scale:
            return om, r, evals
        om -= om * r / slope
    raise ConvergenceError(
        f"gap solver: no convergence in {MAX_STEPS} steps from {lo!r}",
        value=om,
        bound=math.sqrt(3.0) * lo - om,
    )


def solve_gap(params: ModelParams) -> VariationalSolution:
    """Solve the gap equation and evaluate F0 (~ T ln(beta Omega) at high T) at the root."""
    om, rho, evals = _solve(params)
    g = Propagator(params.m, om, params.beta).equal_time()
    f0 = harmonic_free_energy(om, params.beta) - 3.0 * params.lam * g * g
    if not math.isfinite(f0):
        x = params.beta * om
        raise ValidationError(f"F0 is outside double precision at beta*Omega = {x:.3g}")
    return VariationalSolution(
        omega_big=om,
        f0=f0,
        residual=abs(rho) * om * om,
        iterations=evals,
    )
