"""The trial propagator as a truncated Matsubara sum, for checking the closed form.

Shared by ``test_core.py`` and acceptance criterion 8; the package itself
evaluates only closed forms: G(0) in ``quartic_vpe.core.Propagator`` and the
gap-factor form in ``quartic_vpe.diagrams``.
"""

import math

import numpy as np

from quartic_vpe.core import Propagator


def propagator_matsubara(p: Propagator, s: float, n_max: int) -> float:
    """Partial Matsubara sum (1/beta) sum_{|n| <= n_max} e^{-i w_n s} / (m (w_n^2 + Omega^2)).

    The imaginary parts of the +-n terms cancel; the real partial sum converges
    to the closed form with O(1/n_max) error (worst at s = 0).
    """
    m, om, beta = p.m, p.omega_big, p.beta
    total = 1.0 / (m * om * om)
    if n_max > 0:
        n = np.arange(1, n_max + 1, dtype=float)
        wn = 2.0 * math.pi * n / beta
        total += 2.0 * float(np.sum(np.cos(wn * s) / (m * (wn * wn + om * om))))
    return total / beta
