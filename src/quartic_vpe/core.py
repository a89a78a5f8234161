"""Model parameters, the reduced-variable map, and the thermal trial propagator.

The model is the quartic anharmonic oscillator

    H = p^2/(2m) + (1/2) m omega^2 x^2 + lambda x^4

at inverse temperature beta (k_B = 1, hbar = 1).  The trial propagator of the
harmonic reference with frequency Omega is

    G(tau, tau') = cosh(Omega(beta/2 - |tau - tau'|)) / (2 m Omega sinh(beta Omega / 2)),

equivalently the Matsubara sum (1/beta) sum_n e^{-i w_n (tau-tau')} / (m (w_n^2 + Omega^2))
with w_n = 2 pi n / beta.

Reduced variables (valid for m = 1): the substitution x -> lambda^{-1/6} x maps
(omega, lambda, T) onto the one-parameter family

    z = (1/2) omega^2 lambda^{-2/3},   T_red = T lambda^{-1/3},   F_red = F lambda^{-1/3},

so reduced free energies depend on (z, T_red) only.

Everything here is pure ``math`` except :meth:`Propagator.at_separation`,
the quadrature oracle's array form, which imports numpy on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "RescaledParams",
    "Propagator",
    "rescale",
    "unrescale",
    "harmonic_free_energy",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical model point: mass m, bare frequency omega, coupling lambda, beta.

    Constraints: m > 0, lambda > 0, beta > 0, omega >= 0 (omega = 0 is the
    pure-quartic limit; the double well omega^2 < 0 is out of scope).
    """

    m: float
    omega: float
    lam: float
    beta: float

    def __post_init__(self):
        for name in ("m", "omega", "lam", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.m <= 0.0:
            raise ValidationError(f"mass must be positive, got {self.m}")
        if self.lam <= 0.0:
            raise ValidationError(f"coupling lambda must be positive, got {self.lam}")
        if self.beta <= 0.0:
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if self.omega < 0.0:
            raise ValidationError(
                f"omega must be >= 0 (double well not supported), got {self.omega}"
            )

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta


@dataclass(frozen=True)
class RescaledParams:
    """Reduced point (z, T_red) with z = omega^2 lambda^{-2/3} / 2, T_red = T lambda^{-1/3}."""

    z: float
    t_reduced: float

    def __post_init__(self):
        if not (math.isfinite(self.z) and math.isfinite(self.t_reduced)):
            raise ValidationError("rescaled parameters must be finite")
        if self.z < 0.0:
            raise ValidationError(f"z must be >= 0, got {self.z}")
        if self.t_reduced <= 0.0:
            raise ValidationError(f"t_reduced must be positive, got {self.t_reduced}")


def rescale(params: ModelParams) -> RescaledParams:
    """Map a physical point with m = 1 to reduced variables (z, T_red)."""
    if params.m != 1.0:
        raise ValidationError(
            f"reduced variables are defined for m = 1 only, got m = {params.m}"
        )
    lam_23 = params.lam ** (-2.0 / 3.0)
    return RescaledParams(
        z=0.5 * (params.omega * params.omega) * lam_23,
        t_reduced=params.temperature * params.lam ** (-1.0 / 3.0),
    )


def unrescale(rp: RescaledParams, lam: float = 1.0) -> ModelParams:
    """Pick the m = 1 representative of a reduced point at coupling lam.

    Free energies computed at the representative satisfy
    F_red = F(unrescale(rp, lam)) * lam^{-1/3}; with lam = 1 they coincide.
    """
    if lam <= 0.0:
        raise ValidationError(f"coupling lambda must be positive, got {lam}")
    omega = math.sqrt(2.0 * rp.z) * lam ** (1.0 / 3.0)
    beta = lam ** (-1.0 / 3.0) / rp.t_reduced
    return ModelParams(m=1.0, omega=omega, lam=lam, beta=beta)


def check_frequency(omega_big: float) -> None:
    """Reject a trial frequency that is not positive and finite (nan included)."""
    if not 0.0 < omega_big < math.inf:
        raise ValidationError(
            f"trial frequency must be positive and finite, got {omega_big}"
        )


@dataclass(frozen=True)
class Propagator:
    """Thermal harmonic propagator at trial frequency Omega > 0.

    Evaluation uses the overflow-safe factoring

        G(s) = (e^{-Omega s} + e^{-Omega (beta - s)}) / (2 m Omega (1 - e^{-beta Omega})),

    exact for separations s in [0, beta]; all exponents are <= 0, so the closed
    form stays finite for beta*Omega up to ~1e300.
    """

    m: float
    omega_big: float
    beta: float

    def __post_init__(self):
        check_frequency(self.omega_big)
        if self.m <= 0.0 or self.beta <= 0.0:
            raise ValidationError(
                "propagator requires m > 0, beta > 0, got "
                f"(m={self.m}, beta={self.beta})"
            )

    def at_separation(self, s):
        """G at separation s = |tau - tau'|, s in [0, beta]."""
        # not imported at the top: the series path is pure math and should
        # not pay for numpy's import at start-up
        import numpy as np

        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0) or np.any(s > self.beta * (1.0 + 1e-12)):
            raise ValidationError("separation must lie in [0, beta]")
        om, beta = self.omega_big, self.beta
        denom = -math.expm1(-beta * om)  # 1 - e^{-beta*Omega}, accurate for small x
        num = np.exp(-om * s) + np.exp(-om * (beta - s))
        out = num / (2.0 * self.m * om * denom)
        if s.ndim == 0:
            return float(out)
        return out

    def equal_time(self) -> float:
        """G(tau, tau) = coth(beta Omega / 2) / (2 m Omega)."""
        return coth_half(self.beta * self.omega_big) / (2.0 * self.m * self.omega_big)


def coth_half(x: float) -> float:
    """coth(x/2) = (1 + e^{-x}) / (1 - e^{-x}) for x > 0, overflow-safe."""
    if x <= 0.0:
        raise ValidationError(f"coth_half needs x > 0, got {x}")
    q = math.exp(-x)
    return (1.0 + q) / -math.expm1(-x)


def harmonic_free_energy(nu: float, beta: float) -> float:
    """Free energy (1/beta) ln(2 sinh(beta nu / 2)) of a harmonic oscillator.

    Evaluated as nu/2 + ln(1 - e^{-beta nu})/beta, stable for beta*nu from
    1e-300 to 1e300.
    """
    check_frequency(nu)
    if beta <= 0.0:
        raise ValidationError(f"harmonic_free_energy requires beta > 0, got {beta}")
    return 0.5 * nu + math.log(-math.expm1(-beta * nu)) / beta
