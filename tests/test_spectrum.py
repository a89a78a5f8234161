"""Diagonalization oracle: matrix structure, convergence, thermodynamics."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from quartic_vpe import spectrum
from quartic_vpe.core import ModelParams
from quartic_vpe.errors import ConvergenceError, ValidationError
from quartic_vpe.spectrum import (
    ExactResult,
    build_hamiltonian,
    diagonalize,
    exact_free_energy,
)
from quartic_vpe.variational import solve_gap

RNG = np.random.default_rng(1729)


def symmetric(block):
    """The symmetric matrix a block view's lower triangle stands for."""
    return np.tril(block) + np.tril(block, -1).T


def dense_blocks(params, nu, n_basis):
    """Reference build: the parity blocks as separate dense symmetric matrices."""
    b2 = 1.0 / (2.0 * params.m * nu)
    c2 = 0.5 * params.m * (params.omega**2 - nu**2) * b2
    c4 = params.lam * b2 * b2
    blocks = []
    for parity in (0, 1):
        n = np.arange(parity, n_basis, 2, dtype=float)
        r2 = np.sqrt((n + 1.0) * (n + 2.0))
        k = len(n)
        h = np.zeros((k, k))
        bands = (
            nu * (n + 0.5) + c2 * (2.0 * n + 1.0) + c4 * (6.0 * n * n + 6.0 * n + 3.0),
            (c2 + c4 * (4.0 * n[:-1] + 6.0)) * r2[:-1],
            c4 * r2[:-2] * r2[1:-1],
        )
        for offset, band in enumerate(bands):
            i = np.arange(k - offset)
            h[i, i + offset] = band
            h[i + offset, i] = band
        blocks.append(h)
    return blocks


def packed_layout(even, odd):
    """The one buffer holding both dense blocks' lower triangles.

    Even element (i, j) sits at (1 + i, j) and odd element (i, j) at
    (j, 1 + i), so the even triangle lies below the diagonal, the odd one
    above it, and the diagonal stays zero.
    """
    k_even, k_odd = len(even), len(odd)
    packed = np.zeros((k_even + 1, k_even + 1))
    i, j = np.tril_indices(k_even)
    packed[1 + i, j] = even[i, j]
    i, j = np.tril_indices(k_odd)
    packed[j, 1 + i] = odd[i, j]
    return packed


class TestHamiltonian:
    def test_blocks_symmetric_and_pentadiagonal(self):
        # each block is the lower triangle of its view: its symmetric
        # completion is the dense symmetric block, bit for bit
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        for n_basis in (8, 9, 40, 41, 64, 65, 128, 129):
            even, odd = build_hamiltonian(p, nu=2.0, n_basis=n_basis)
            assert even.shape[0] + odd.shape[0] == n_basis
            dense = dense_blocks(p, 2.0, n_basis)
            for view, block in zip((even, odd), dense):
                h = symmetric(view)
                assert np.array_equal(h, block)
                # x^4 connects |n> to |n +/- 4> at most: block offset 2
                rows, cols = np.nonzero(h)
                assert np.max(np.abs(rows - cols)) == 2
            # the whole buffer, zeros included, is the reference layout: a
            # band written one slot off lands in a zero or another band
            assert np.array_equal(even.base, packed_layout(*dense))

    def test_bands_match_matrix_products(self):
        # the closed-form bands against x^2 = x @ x and x^4 = x^2 @ x^2 from
        # the truncated position matrix; the products lose the states
        # beyond the basis, so the last 4 rows differ by design
        p = ModelParams(m=0.7, omega=1.9, lam=2.3, beta=1.0)
        nu, n_basis = 1.3, 48
        n = np.arange(n_basis)
        x = np.diag(np.sqrt((n[:-1] + 1.0) / (2.0 * p.m * nu)), 1)
        x = x + x.T
        x2 = x @ x
        x4 = x2 @ x2
        h = np.diag(nu * (n + 0.5)) + 0.5 * p.m * (p.omega**2 - nu**2) * x2 + p.lam * x4
        # H never couples even and odd states
        assert not h[0::2, 1::2].any()
        for parity, view in zip((0, 1), build_hamiltonian(p, nu, n_basis)):
            block = symmetric(view)
            dense = h[parity::2, parity::2]
            rows = (n[parity::2] < n_basis - 4).sum()
            diff = np.abs(block - dense)[:rows]
            assert np.all(diff <= 1e-13 * np.abs(dense[:rows]))
            assert np.any(block[rows:] != dense[rows:])

    def test_blocks_share_one_buffer_in_disjoint_triangles(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        for n_basis in (40, 41):
            even, odd = build_hamiltonian(p, nu=2.0, n_basis=n_basis)
            assert np.shares_memory(even, odd)
            # writing one block's triangle leaves the other's untouched
            before = np.tril(odd).copy()
            even[np.tril_indices(len(even))] = np.nan
            assert np.array_equal(np.tril(odd), before)

    def test_eigenvalues_interlace_under_doubling(self):
        # the n basis is a principal submatrix of the 2n one, so no
        # eigenvalue rises when the basis doubles (Cauchy interlacing)
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=0.01)
        nu = solve_gap(p).omega_big
        for n_basis in (64, 128, 256, 512):
            small = diagonalize(p, nu, n_basis)
            large = diagonalize(p, nu, 2 * n_basis)[:n_basis]
            assert np.all(large - small <= 1e-13 * np.abs(small))

    def test_harmonic_limit(self):
        # vanishing quartic coupling in the matched basis gives the
        # ladder spectrum omega (n + 1/2)
        p = ModelParams(m=1.0, omega=1.5, lam=1e-14, beta=1.0)
        lowest = diagonalize(p, nu=1.5, n_basis=64)[:20]
        expected = 1.5 * (np.arange(20) + 0.5)
        assert np.max(np.abs(lowest - expected)) < 1e-10

    def test_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        for nu in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                build_hamiltonian(p, nu=nu, n_basis=32)
        with pytest.raises(ValidationError):
            build_hamiltonian(p, nu=1.0, n_basis=4)


class TestConcurrentEigensolve:
    PARAMS = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=0.01)
    NU = 1.7

    @pytest.mark.parametrize("n_basis", [512, 1024, 1025, 2048])
    def test_bitwise_equal_to_serial_reference(self, n_basis):
        # 512 runs serially, 1024 and up concurrently; 1025 has blocks of
        # different sizes (513 and 512)
        reference = np.sort(np.concatenate(
            [np.linalg.eigvalsh(h) for h in dense_blocks(self.PARAMS, self.NU, n_basis)]
        ))
        eigs = diagonalize(self.PARAMS, self.NU, n_basis)
        assert eigs.tobytes() == reference.tobytes()

    def test_odd_block_runs_in_a_worker_from_the_threshold(self, monkeypatch):
        threads = {}
        eigvalsh = np.linalg.eigvalsh

        def recording(h):
            threads[len(h)] = threading.current_thread()
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        n = spectrum.CONCURRENT_BASIS
        diagonalize(self.PARAMS, self.NU, n - 1)  # blocks of n/2 and n/2 - 1
        assert threads[n // 2] is threads[n // 2 - 1] is threading.main_thread()
        diagonalize(self.PARAMS, self.NU, n + 1)  # blocks of n/2 + 1 and n/2
        assert threads[n // 2 + 1] is threading.main_thread()
        assert threads[n // 2] is not threading.main_thread()

    def test_worker_error_is_raised_and_worker_joined(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def failing_odd(h):
            if len(h) == 512:  # the odd block of a 1025 basis
                raise np.linalg.LinAlgError("odd block did not converge")
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_odd)
        started = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="odd block"):
            diagonalize(self.PARAMS, self.NU, 1025)
        assert threading.active_count() == started

    def test_caller_error_is_raised_and_worker_joined(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def failing_even(h):
            if len(h) == 513:  # the even block of a 1025 basis
                raise np.linalg.LinAlgError("even block did not converge")
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_even)
        started = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="even block"):
            diagonalize(self.PARAMS, self.NU, 1025)
        assert threading.active_count() == started

    def test_concurrent_callers_agree_with_a_serial_call(self):
        # more caller threads than cores, each with its own worker per
        # eigensolve; T = 100 reaches basis 1024
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / 100.0)
        serial = exact_free_energy(p)
        assert serial.basis_size >= spectrum.CONCURRENT_BASIS
        results = [None] * 4

        def call(slot):
            results[slot] = exact_free_energy(p)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
            assert not t.is_alive()
        for res in results:
            assert res.value.hex() == serial.value.hex()
            assert res.step.hex() == serial.step.hex()
            assert res.basis_size == serial.basis_size

    def test_import_starts_no_thread(self):
        code = ("import threading, quartic_vpe.cli, sys; "
                "assert threading.active_count() == 1; "
                "assert 'concurrent.futures' not in sys.modules")
        src = str(Path(spectrum.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestSpectrum:
    def test_eigenvalues_ascending_and_positive(self):
        for _ in range(10):
            p = ModelParams(
                m=float(RNG.uniform(0.3, 3.0)),
                omega=float(RNG.uniform(0.0, 3.0)),
                lam=float(RNG.uniform(0.05, 20.0)),
                beta=1.0,
            )
            eigs = diagonalize(p, nu=solve_gap(p).omega_big, n_basis=64)
            assert np.all(np.diff(eigs) > 0.0)
            assert eigs[0] > 0.0

    def test_eigenvalues_increase_with_coupling(self):
        base = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        more = ModelParams(m=1.0, omega=1.0, lam=2.0, beta=1.0)
        nu = solve_gap(base).omega_big
        a = diagonalize(base, nu, 128)[:30]
        b = diagonalize(more, nu, 128)[:30]
        assert np.all(b > a)

    def test_ground_state_stable_under_doubling(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        nu = solve_gap(p).omega_big
        small = diagonalize(p, nu, 64)
        large = diagonalize(p, nu, 128)
        assert abs(large[0] - small[0]) < 1e-10


class TestExactFreeEnergy:
    def test_known_values(self):
        # strong-coupling dimensionless point z = 10 at unit reduced
        # temperature, quoted to 12 digits in the reference literature
        p = ModelParams(m=1.0, omega=math.sqrt(20.0), lam=1.0, beta=1.0)
        assert exact_free_energy(p, tol=1e-11).value == pytest.approx(
            2.26225951564, abs=1e-9
        )
        # unit coupling at beta = 5
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=5.0)
        assert exact_free_energy(p).value == pytest.approx(0.803758, abs=1e-5)

    def test_basis_frequency_independence(self):
        # the truncation converges to the same physics from any
        # reasonable basis frequency
        p = ModelParams(m=1.0, omega=1.0, lam=2.0, beta=2.0)
        w = solve_gap(p).omega_big
        values = [exact_free_energy(p, tol=1e-10, nu=s * w).value for s in (0.5, 1.0, 2.0)]
        assert max(values) - min(values) < 1e-8

    def test_full_output_diagnostics(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        res = exact_free_energy(p, tol=1e-9)
        assert isinstance(res, ExactResult)
        assert res.step < 1e-9
        assert res.basis_size >= 64

    def test_free_energy_decreasing_and_concave_in_temperature(self):
        p0 = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        temps = np.linspace(0.4, 3.0, 9)
        values = [
            exact_free_energy(ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / t)).value
            for t in temps
        ]
        diffs = np.diff(values)
        assert np.all(diffs < 0.0)
        assert np.all(np.diff(diffs) < 0.0)

    def test_variational_bound_spot_check(self):
        for _ in range(5):
            p = ModelParams(
                m=1.0,
                omega=float(RNG.uniform(0.0, 2.0)),
                lam=float(RNG.uniform(0.2, 10.0)),
                beta=float(RNG.uniform(0.3, 8.0)),
            )
            assert solve_gap(p).f0 >= exact_free_energy(p).value

    def test_non_convergence_reports_partial(self, monkeypatch):
        monkeypatch.setattr(spectrum, "BASIS_START", 8)
        monkeypatch.setattr(spectrum, "BASIS_CAP", 16)
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        with pytest.raises(ConvergenceError) as err:
            exact_free_energy(p, tol=1e-14)
        assert err.value.value is not None and math.isfinite(err.value.value)
        # the bound is the last doubling step, 8 -> 16
        assert 1e-14 < err.value.bound < 1e-2

    def test_tail_failure_names_the_tail_and_bounds_it(self, monkeypatch):
        # at T = 400 the Boltzmann sum of a 512 basis reaches beyond the
        # lower half of the basis; the bound covers the distance to the
        # 2048-basis value -1664.44262
        monkeypatch.setattr(spectrum, "BASIS_CAP", 512)
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / 400.0)
        with pytest.raises(ConvergenceError) as err:
            exact_free_energy(p)
        assert str(err.value).endswith(": the Boltzmann tail reaches unconverged levels")
        assert 0.0 < err.value.bound < math.inf
        assert abs(err.value.value + 1664.44262) <= err.value.bound

    def test_degraded_bound_covers_larger_basis(self):
        # T = 400 and 500 stop degraded at the default 2048 cap.  The
        # reference values come from the same oracle with BASIS_CAP = 4096,
        # where both converge; the 2048-basis values agree with them to 12
        # decimals, and the reported bound must cover the difference
        for temp, f_4096 in ((400.0, -1664.442617998294), (500.0, -2164.676934335565)):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / temp)
            with pytest.raises(ConvergenceError) as err:
                exact_free_energy(p)
            assert err.value.value == pytest.approx(f_4096, abs=1e-9)
            assert abs(err.value.value - f_4096) <= err.value.bound

    def test_mass_scaling_and_dilation_are_bit_identical(self):
        # x -> x/sqrt(m) gives F(m 2**j, omega, lam 4**j, beta) = F, and the
        # dilation s = 2**k gives F(omega/s, lam/s**3, beta s) = F/s with the
        # basis frequency (and the absolute tol) scaled by 1/s too: H/s in
        # the same basis, every input scaled exactly.  T = 2 stops at basis
        # 128; T = 450 reaches the cap, through the concurrent branch.
        s = 2.0**5

        def outcome(params, nu, tol):
            try:
                res = exact_free_energy(params, tol=tol, nu=nu)
            except ConvergenceError as exc:
                return exc.value, exc.bound, None
            return res.value, res.step, res.basis_size

        for temp, basis in ((2.0, 128), (450.0, None)):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / temp)
            nu = solve_gap(p).omega_big
            twin = ModelParams(m=8.0 * p.m, omega=p.omega / s,
                               lam=64.0 * p.lam / s**3, beta=p.beta * s)
            value, step, size = outcome(p, nu, spectrum.DEFAULT_TOL)
            assert size == basis
            assert outcome(twin, nu / s, spectrum.DEFAULT_TOL / s) == (
                value / s, step / s, size)

    def test_doubling_step_bounds_upper_half_tail(self):
        # the n/2 basis is a principal submatrix of the n one, so by Cauchy
        # interlacing its levels lie above the lowest n/2 of the n basis:
        # F_{n/2} - F_n >= T ln(Z_n / Z_lower half), the free energy the
        # upper half of the n basis carries
        def free_energy(eigs, beta):
            weights = np.exp(-beta * (eigs - eigs[0]))
            return eigs[0] - math.log(weights.sum()) / beta, weights

        for temp in (50.0, 400.0):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0 / temp)
            nu = solve_gap(p).omega_big
            for n_basis in (128, 256, 512):
                f_half, _ = free_energy(diagonalize(p, nu, n_basis // 2), p.beta)
                f, w = free_energy(diagonalize(p, nu, n_basis), p.beta)
                half = n_basis // 2
                tail = temp * math.log1p(w[half:].sum() / w[:half].sum())
                assert tail <= f_half - f + 1e-12 * abs(f)

    def test_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        for tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ValidationError):
                exact_free_energy(p, tol=tol)
        for nu in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                exact_free_energy(p, nu=nu)