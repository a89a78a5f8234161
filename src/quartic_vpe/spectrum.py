"""Exact free energy by Hamiltonian diagonalization in a harmonic-oscillator basis.

H = p^2/(2m) + (1/2) m omega^2 x^2 + lambda x^4 is represented in the
eigenbasis of a harmonic oscillator with basis frequency nu (default: the
variational Omega, which keeps the required basis size small; the run
drivers pass the hottest row's Omega of each (m, omega, lambda) group, so
all rows of one command share one spectrum per basis size):

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
(LAPACK releases the GIL); the results are the serial ones bit for bit.

The free energy is the truncated Boltzmann sum

    F = -T ln sum_K e^{-beta E_K},

summed until e^{-beta (E_K - E_0)} < 1e-16.  The basis size doubles from
64.  Below the cap each basis is solved with its eigenvectors, and the
oracle stops at the first size whose residual estimate of the error in F
is below tol.  Ritz values lie above the true levels; the estimate bounds
how far below them each true level may lie.  Each block of the infinite
matrix is pentadiagonal too, so a Ritz pair's residual has two components
past the basis, read from the last two entries of its vector.  A level
whose residual interval lies apart from its neighbours' gets the
Kato-Temple bound (Temple 1928, Kato 1949), a run of overlapping intervals
the lower end of the run.  An analytic floor covers every level and the
levels past the basis: lam x^4 >= lam (2 a^2 x^2 - a^4) puts H above a
shifted oscillator.  The estimate assumes that each separated Ritz value
pairs with the true level of its rank, which is not proven here.  The cap
is solved for values only, to hold the largest solve's memory down, and
keeps the two-size rule: |Delta F| < tol with the sum within the lower half
of the basis.  If that fails, the last doubling step bounds the error: the
n/2-basis levels lie above the lowest n/2 of the n basis, so the step is at
least the free energy the upper half carries.  This route shares nothing
with the variational/series formulas and serves as their end-to-end
oracle.
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
# error estimate in F (|Delta F| between two sizes at the cap) that counts
# as converged
DEFAULT_TOL = 1e-9
# The basis doubles from BASIS_START up to BASIS_CAP.
BASIS_START = 64
BASIS_CAP = 2048
# From this basis size on the parity blocks are diagonalized concurrently.
# Values only, a worker thread at 512 costs more than it saves: 4.0-4.8 ms
# against 3.8-4.0 ms serially.  With vectors it saves from 256 on: at 1024
# 53-58 ms against 107-110 ms serially, at 512 12 against 20-21 ms (one
# BLAS thread, 2-core VM).  With two BLAS threads it costs at 1024 (130
# against 87 ms), so the threshold stays where values-only solves pay.
CONCURRENT_BASIS = 1024
# Exponents in the error estimate are clipped to +-700, where e^x is still
# a normal double and a sum of BASIS_CAP such terms stays finite.
_EXP_LIMIT = 700.0


@dataclass(frozen=True)
class ExactResult:
    """Converged free energy with its own convergence diagnostics.

    ``step`` is the error estimate the oracle stopped on: below the cap the
    residual estimate of ``basis_size``, at the cap the doubling step
    |F_{n/2} - F_n|.
    """

    value: float
    step: float
    basis_size: int


def _bands(params: ModelParams, nu: float, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three bands of H at oscillator states n: band b couples |n> and |n + 2b>."""
    b2 = 1.0 / (2.0 * params.m * nu)
    c2 = 0.5 * params.m * (params.omega**2 - nu**2) * b2
    c4 = params.lam * b2 * b2
    r2 = np.sqrt((n + 1.0) * (n + 2.0))  # <n|(a + a^dagger)^2|n+2>
    return (
        nu * (n + 0.5) + c2 * (2.0 * n + 1.0) + c4 * (6.0 * n * n + 6.0 * n + 3.0),
        (c2 + c4 * (4.0 * n + 6.0)) * r2,
        c4 * r2 * np.sqrt((n + 3.0) * (n + 4.0)),
    )


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
    k_even, k_odd = (n_basis + 1) // 2, n_basis // 2
    packed = np.zeros((k_even + 1, k_even + 1))
    bands = _bands(params, nu, np.arange(n_basis, dtype=float))
    # Element (j + b, j) of either block sits at flat index start + j * stride:
    # even (1 + j + b, j) has start (1 + b) * (k_even + 1), odd (j, 1 + j + b)
    # has start 1 + b.
    flat = packed.reshape(-1)
    stride = k_even + 2
    for b, band in enumerate(bands):
        for parity, start in ((0, (1 + b) * (k_even + 1)), (1, 1 + b)):
            # band b couples states inside the basis for n < n_basis - 2b
            values = band[parity : n_basis - 2 * b : 2]
            flat[start : start + stride * len(values) : stride] = values
    return packed[1:, :k_even], packed[:k_odd, 1 : k_odd + 1].T


def _edge_couplings(params: ModelParams, nu: float, n_basis: int) -> list[tuple]:
    """Per block (even, odd): the bands (b1, b2', b2) from its last two states
    to the two states just past the basis.  With n the block's last state,
    b1 couples n to n + 2, b2' couples n - 2 to n + 2 and b2 couples n to
    n + 4."""
    _, band1, band2 = _bands(params, nu, np.arange(n_basis - 4.0, n_basis))
    # index 3 is the last state n_basis - 1, index 2 the last of the other parity
    last = {(n_basis - 1) % 2: 3, n_basis % 2: 2}
    return [(band1[last[p]], band2[last[p] - 2], band2[last[p]]) for p in (0, 1)]


def _ritz(h: np.ndarray, edge: tuple | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending Ritz values theta_i of one parity block and, given its edge
    couplings, their residual norms in the infinite block.

    The infinite block is pentadiagonal too, so H u_i - theta_i u_i is zero
    inside the basis and has two components past it, from the last two
    entries of u_i: |r_i| = |(b1 u_i[k-1] + b2' u_i[k-2], b2 u_i[k-1])|.
    Only the vectors' last two rows are read.
    """
    if edge is None:
        return np.linalg.eigvalsh(h), None
    theta, u = np.linalg.eigh(h)
    b1, b2p, b2 = edge
    return theta, np.hypot(b1 * u[-1] + b2p * u[-2], b2 * u[-1])


def _drops(theta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """How far below each Ritz value of one block its true level is
    estimated to lie.

    A level whose interval theta_i +- |r_i| lies apart from both
    neighbours' gets delta_i = |r_i|^2 / (theta_{i+1} - |r_{i+1}| - theta_i),
    Kato-Temple with the next level's lower estimate (|r_i| at the top of
    the block).  Where intervals overlap, a Ritz value need not pair with
    the true level of its rank, so every level of such a run is estimated
    to lie above the run's lower end, theta_s - |r_s| at its first level s.
    """
    gap = theta[1:] - r[1:] - theta[:-1]
    apart = gap > r[:-1]  # interval i lies below interval i + 1
    temple = np.divide(r[:-1] ** 2, gap, out=np.full(len(gap), np.inf), where=apart)
    starts = np.append(True, apart)  # interval i lies above interval i - 1
    first = np.maximum.accumulate(np.where(starts, np.arange(len(theta)), 0))
    run = theta - (theta - r)[first]
    isolated = starts & np.append(apart, True)
    return np.where(isolated, np.append(temple, r[-1]), run)


def diagonalize(
    params: ModelParams, nu: float, n_basis: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted eigenvalues of H truncated to the lowest n_basis oscillator
    states and, below ``BASIS_CAP``, how far below each the true level is
    estimated to lie, in the same order (see ``_drops``).

    Below the cap each block is solved with its vectors (``eigh``) and only
    their last two entries are read; at the cap it is solved for values
    only (``eigvalsh``), which holds the largest solve's memory down.
    From ``CONCURRENT_BASIS`` on, the odd block is diagonalized on a
    ``concurrent.futures`` worker while the calling thread does the even one;
    the worker is joined before this returns, and an error it raises is
    raised here.
    """
    even, odd = build_hamiltonian(params, nu, n_basis)
    edges = _edge_couplings(params, nu, n_basis) if n_basis < BASIS_CAP else [None, None]
    if n_basis >= CONCURRENT_BASIS:
        # not imported at the top: concurrent.futures pulls in logging, ~20 ms cold
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            odd_ritz = pool.submit(_ritz, odd, edges[1])
            blocks = [_ritz(even, edges[0]), odd_ritz.result()]
    else:
        blocks = [_ritz(even, edges[0]), _ritz(odd, edges[1])]
    eigs = np.concatenate([theta for theta, _ in blocks])
    order = np.argsort(eigs)
    if edges[0] is None:
        return eigs[order], None
    return eigs[order], np.concatenate([_drops(*block) for block in blocks])[order]


def _level_floor(
    params: ModelParams, nu: float, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic floor L_j of the j-th level (both parities) and the Omega_a
    it is taken at.

    lam x^4 >= lam (2 a^2 x^2 - a^4) for every a, so H lies above an
    oscillator of frequency Omega_a, Omega_a^2 = omega^2 + 4 lam a^2 / m,
    shifted down by lam a^4, and E_j >= Omega_a (j + 1/2) - lam a^4.  The
    best a solves Omega (Omega^2 - omega^2) = 4 lam (j + 1/2) / m^2; in units
    w = Omega / nu that is w^3 - A w = kappa, with A = (omega / nu)^2 and
    kappa = 4 lam (j + 1/2) / (m^2 nu^3).  Newton's method runs down to the
    root from the upper bound sqrt(A) + cbrt(kappa), where the cubic is
    convex, and stops once no iterate falls.  The floor is evaluated at the
    last iterate; any w >= sqrt(A) gives a valid floor.  Every input enters
    through dimensionless ratios, so under a dilation by a power of two L
    scales exactly.
    """
    g = level + 0.5
    a = (params.omega / nu) * (params.omega / nu)
    kappa = 4.0 * g * (params.lam / (params.m * nu) / (params.m * nu) / nu)
    w = np.sqrt(a) + np.cbrt(kappa)
    while True:
        step = w - (w * (w * w - a) - kappa) / (3.0 * w * w - a)
        falls = step < w
        if not falls.any():
            break
        w = np.where(falls, step, w)
    # lam a^4 = (w^2 - A)^2 nu g / (4 kappa) at the a of this w
    return nu * g * (w - (w * w - a) ** 2 / (4.0 * kappa)), nu * w


def _spectrum(
    params: ModelParams, nu: float, n_basis: int
) -> tuple[np.ndarray, tuple | None]:
    """One basis's sorted levels and, below the cap, what its error estimate
    needs at every beta: how far each level may lie below its Ritz value,
    min(delta_i, theta_i - L_i), and the floor (L_n, Omega_a) of the levels
    past the basis, E_{n + j} >= L_n + j Omega_a."""
    levels, delta = diagonalize(params, nu, n_basis)
    if delta is None:
        return levels, None
    floor, omega_a = _level_floor(params, nu, np.arange(n_basis + 1.0))
    drop = np.maximum(np.minimum(delta, levels - floor[:-1]), 0.0)
    return levels, (drop, float(floor[-1]), float(omega_a[-1]))


def _clipped_exp(x):
    """e^x with x clipped to +-700: no underflow, no overflow."""
    return np.exp(np.clip(x, -_EXP_LIMIT, _EXP_LIMIT))


def _free_energy(spectrum: tuple, beta: float) -> tuple[float, int, float]:
    """F = E_0 - T ln sum e^{-beta (E - E_0)} truncated at the 1e-16 cut, the
    count of levels kept and the error estimate (inf without error data).

    With w_i = e^{-beta (theta_i - theta_0)} over the K kept levels and
    l_i = theta_i - drop_i each level's lower estimate, the estimate is
    T ln(1 + (sum_{i<K} w_i expm1(beta drop_i) + sum_{i>=K} e^{-beta (l_i -
    theta_0)} + tail) / sum_{i<K} w_i), where the tail sums the floor of the
    levels past the basis as a geometric series.
    """
    levels, bounds = spectrum
    e0 = float(levels[0])
    shifted = beta * (levels - e0)
    keep = shifted < -math.log(BOLTZMANN_CUT)
    n_kept = int(np.sum(keep))
    weights = np.exp(-shifted[keep])
    z = float(np.sum(weights))
    f = e0 - math.log(z) / beta
    if bounds is None:
        return f, n_kept, math.inf
    drop, floor, omega_a = bounds
    spread = float(np.sum(weights * np.expm1(np.minimum(beta * drop[:n_kept], _EXP_LIMIT))))
    above = float(np.sum(_clipped_exp(beta * drop[n_kept:] - shifted[n_kept:])))
    ratio = -math.expm1(-beta * omega_a)  # 1 - e^{-beta Omega_a}, 0 if it underflows
    tail = float(_clipped_exp(beta * (e0 - floor))) / ratio if ratio > 0.0 else math.inf
    return f, n_kept, math.log1p((spread + above + tail) / z) / beta


def exact_free_energy(
    params: ModelParams,
    tol: float = DEFAULT_TOL,
    nu: float | None = None,
    spectra: dict | None = None,
) -> ExactResult:
    """Free energy from the diagonalization oracle, basis-doubled until its
    error estimate is below ``tol``.

    Below ``BASIS_CAP`` the basis doubles until the residual estimate of
    the first basis size is below ``tol``; that estimate is the result's
    ``step``.  It assumes each Ritz value pairs with the true level of the
    same rank, so it is an estimate, not a proven bound.  At the cap the
    levels are solved without vectors and the two-size rule decides: the
    result needs |F_{n/2} - F_n| < tol with the Boltzmann sum inside the
    lower half of the basis, and ``step`` is that doubling step.  Raises
    ConvergenceError with the partial value if the cap does not converge
    either.  Its bound is the last doubling step F_{n/2} - F_n, which by
    interlacing is at least the free energy the levels above n/2 carry,
    T ln(Z_n / Z_lower half); when the sum reaches those levels, the
    message names the tail.

    ``spectra`` is a memo the caller owns, keyed by
    ``(m, omega, lam, nu, n_basis)``, everything the eigenvalues depend on.
    A basis size found there is not diagonalized again; one that is missing
    is diagonalized and stored with the beta-free parts of its error
    estimate.  Points that differ only in beta and share ``nu`` thus share
    every spectrum, while each keeps its own stopping rule.
    """
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    if nu is None:
        nu = solve_gap(params).omega_big
    if spectra is None:
        spectra = {}
    n_basis = BASIS_START
    prev_f = None
    while True:
        key = (params.m, params.omega, params.lam, nu, n_basis)
        spectrum = spectra.get(key)
        if spectrum is None:
            spectrum = spectra[key] = _spectrum(params, nu, n_basis)
        f, n_kept, bound = _free_energy(spectrum, params.beta)
        if bound < tol:
            return ExactResult(value=f, step=bound, basis_size=n_basis)
        if 2 * n_basis > BASIS_CAP:
            break
        prev_f = f
        n_basis *= 2
    # the cap: two basis sizes must agree, the Boltzmann sum within the
    # lower half of the basis
    step = math.inf if prev_f is None else abs(f - prev_f)
    tail_ok = n_kept <= n_basis // 2
    if tail_ok and step < tol:
        return ExactResult(value=f, step=step, basis_size=n_basis)
    message = f"exact free energy not stable to {tol:.1e} at basis cap {BASIS_CAP}"
    if not tail_ok:
        message += ": the Boltzmann tail reaches unconverged levels"
    raise ConvergenceError(message, value=f, bound=step)
