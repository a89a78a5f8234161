"""Exact free energy by Hamiltonian diagonalization in a harmonic-oscillator basis.

H = p^2/(2m) + (1/2) m omega^2 x^2 + lambda x^4 is represented in the
eigenbasis of a harmonic oscillator with basis frequency nu (default: the
variational Omega, which keeps the required basis size small):

    H = nu (n + 1/2) delta_{nn'} + (1/2) m (omega^2 - nu^2) (x^2)_{nn'}
        + lambda (x^4)_{nn'}.

x^2 and x^4 preserve parity, so H splits into an even block (n = 0, 2, ...)
and an odd block (n = 1, 3, ...), each pentadiagonal in its block index.
Their bands come from the closed forms, with b^2 = 1/(2 m nu),

    <n|x^2|n> = b^2 (2n + 1),           <n|x^2|n+2> = b^2 sqrt((n+1)(n+2)),
    <n|x^4|n> = b^4 (6n^2 + 6n + 3),    <n|x^4|n+2> = b^4 (4n + 6) sqrt((n+1)(n+2)),
    <n|x^4|n+4> = b^4 sqrt((n+1)(n+2)(n+3)(n+4)),

so the truncated matrix is the exact projection of H onto the basis: each
basis is a principal submatrix of the doubled one, and by Cauchy interlacing
no eigenvalue rises when the basis doubles.

Both blocks live in one zeroed square buffer, each as the lower triangle of
a view: the even block below the diagonal, the odd block (transposed) above
it, so every band is written once and the blocks share no element.  In the
flat buffer each band of each block is a run of stride k_even + 2, so the
three bands are computed once over all n and each block's half of a band
(every second n) is written as one strided slice.  From basis
``CONCURRENT_BASIS`` on, the odd block is diagonalized on a
``concurrent.futures`` worker while the calling thread does the even one
(LAPACK releases the GIL); the eigenvalues are the serial ones bit for bit.

The free energy is the truncated Boltzmann sum

    F = -T ln sum_K e^{-beta E_K},

summed until e^{-beta (E_K - E_0)} < 1e-16.  The basis size doubles until
|Delta F| < tol and the sum stays within the lower half of the basis.  If the
cap comes first, the last doubling step bounds the error: the n/2-basis
levels lie above the lowest n/2 of the n basis, so the step is at least the
free energy the upper half carries.  This route shares nothing with the
variational/series formulas and serves as their end-to-end oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, check_frequency
from .errors import ConvergenceError, ValidationError
from .variational import solve_gap

__all__ = [
    "ExactResult",
    "build_hamiltonian",
    "diagonalize",
    "exact_free_energy",
]

BOLTZMANN_CUT = 1e-16
# |Delta F| between two basis sizes that counts as converged
DEFAULT_TOL = 1e-9
# The basis doubles from BASIS_START up to BASIS_CAP.
BASIS_START = 64
BASIS_CAP = 2048
# From this basis size on the parity blocks are diagonalized concurrently.
# At 512 a worker thread costs more than it saves: 4.0-4.8 ms against
# 3.8-4.0 ms serially (one BLAS thread, 2-core VM).
CONCURRENT_BASIS = 1024


@dataclass(frozen=True)
class ExactResult:
    """Converged free energy with its own convergence diagnostics."""

    value: float
    step: float
    basis_size: int


def build_hamiltonian(
    params: ModelParams, nu: float, n_basis: int
) -> tuple[np.ndarray, np.ndarray]:
    """Even- and odd-parity blocks of H in the (m, nu) oscillator basis.

    Block index j holds the state n = 2j (even) or n = 2j + 1 (odd).  Both
    blocks are views of one zeroed (k_even + 1)^2 buffer: ``packed[1:, :k_even]``
    for the even block and ``packed[:k_odd, 1:k_odd + 1].T`` for the odd one.
    Only each view's lower triangle holds its block (bandwidth 2); the
    triangles share no element, and the upper triangles hold the other block.
    Read them with ``eigvalsh(..., UPLO='L')``, the default.

    The three bands are computed once over n = 0 ... n_basis - 1; in the flat
    buffer band b of either block is a run of stride k_even + 2, so each
    block's entries (n even or n odd) go in with one strided slice write.
    """
    check_frequency(nu)
    if n_basis < 8:
        raise ValidationError(f"basis size must be >= 8, got {n_basis}")
    b2 = 1.0 / (2.0 * params.m * nu)
    c2 = 0.5 * params.m * (params.omega**2 - nu**2) * b2
    c4 = params.lam * b2 * b2
    k_even, k_odd = (n_basis + 1) // 2, n_basis // 2
    packed = np.zeros((k_even + 1, k_even + 1))
    n = np.arange(n_basis, dtype=float)
    r2 = np.sqrt((n + 1.0) * (n + 2.0))  # <n|(a + a^dagger)^2|n+2>
    # band b couples |n> and |n + 2b>, for n = 0 ... n_basis - 1 - 2b
    bands = (
        nu * (n + 0.5) + c2 * (2.0 * n + 1.0) + c4 * (6.0 * n * n + 6.0 * n + 3.0),
        (c2 + c4 * (4.0 * n[:-2] + 6.0)) * r2[:-2],
        c4 * r2[:-4] * r2[2:-2],
    )
    # Element (j + b, j) of either block sits at flat index start + j * stride:
    # even (1 + j + b, j) has start (1 + b) * (k_even + 1), odd (j, 1 + j + b)
    # has start 1 + b.
    flat = packed.reshape(-1)
    stride = k_even + 2
    for b, band in enumerate(bands):
        for parity, start in ((0, (1 + b) * (k_even + 1)), (1, 1 + b)):
            values = band[parity::2]
            flat[start : start + stride * len(values) : stride] = values
    return packed[1:, :k_even], packed[:k_odd, 1 : k_odd + 1].T


def diagonalize(params: ModelParams, nu: float, n_basis: int) -> np.ndarray:
    """Sorted eigenvalues of H truncated to the lowest n_basis oscillator states.

    From ``CONCURRENT_BASIS`` on, the odd block is diagonalized on a
    ``concurrent.futures`` worker while the calling thread does the even one;
    the worker is joined before this returns, and an error it raises is
    raised here.
    """
    even, odd = build_hamiltonian(params, nu, n_basis)
    if n_basis >= CONCURRENT_BASIS:
        # not imported at the top: concurrent.futures pulls in logging, ~20 ms cold
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            odd_eigs = pool.submit(np.linalg.eigvalsh, odd)
            eigs = [np.linalg.eigvalsh(even), odd_eigs.result()]
    else:
        eigs = [np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]
    return np.sort(np.concatenate(eigs))


def _boltzmann_free_energy(eigs: np.ndarray, beta: float) -> tuple[float, int]:
    """F = E_0 - T ln sum e^{-beta (E - E_0)}, truncated at the 1e-16 tail."""
    e0 = float(eigs[0])
    shifted = beta * (eigs - e0)
    keep = shifted < -math.log(BOLTZMANN_CUT)
    n_kept = int(np.sum(keep))
    z = float(np.sum(np.exp(-shifted[keep])))
    return e0 - math.log(z) / beta, n_kept


def exact_free_energy(
    params: ModelParams, tol: float = DEFAULT_TOL, nu: float | None = None
) -> ExactResult:
    """Free energy from the diagonalization oracle, basis-doubled until stable.

    The basis doubles until |Delta F| < tol with the Boltzmann sum inside the
    lower half of the basis.  The result carries the achieved doubling step
    |Delta F| and the final basis size.  Raises ConvergenceError with the
    partial value if ``BASIS_CAP`` is reached first.  Its bound is the last
    doubling step F_{n/2} - F_n, which by interlacing is at least the free
    energy the levels above n/2 carry, T ln(Z_n / Z_lower half); when the
    sum reaches those levels, the message names the tail.
    """
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    if nu is None:
        nu = solve_gap(params).omega_big
    n_basis = BASIS_START
    step = math.inf
    prev_f = None
    while n_basis <= BASIS_CAP:
        f, n_kept = _boltzmann_free_energy(diagonalize(params, nu, n_basis), params.beta)
        # the Boltzmann sum must stay within the lower half of the basis
        tail_ok = n_kept <= n_basis // 2
        if prev_f is not None:
            step = abs(f - prev_f)
            if tail_ok and step < tol:
                return ExactResult(value=f, step=step, basis_size=n_basis)
        prev_f = f
        n_basis *= 2
    message = f"exact free energy not stable to {tol:.1e} at basis cap {BASIS_CAP}"
    if not tail_ok:
        message += ": the Boltzmann tail reaches unconverged levels"
    raise ConvergenceError(message, value=f, bound=step)
