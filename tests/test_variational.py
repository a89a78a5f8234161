"""Gap equation, trial functional, and variational free energy F0."""

import itertools
import json
import math
import sys

import numpy as np
import pytest

from quartic_vpe import runs, variational
from quartic_vpe.cli import main
from quartic_vpe.core import ModelParams, coth_half
from quartic_vpe.errors import ConvergenceError, ValidationError
from quartic_vpe.series import c2_closed, c3_closed, c4_closed
from quartic_vpe.variational import fbar, solve_gap

RNG = np.random.default_rng(7041)


def random_params(n):
    out = []
    for _ in range(n):
        m = float(RNG.uniform(0.3, 3.0))
        om = float(RNG.uniform(0.0, 4.0))
        lam = float(10.0 ** RNG.uniform(-2, math.log10(50.0)))
        beta = float(RNG.uniform(0.05, 200.0 / max(om, 1.0)))
        out.append(ModelParams(m=m, omega=om, lam=lam, beta=beta))
    return out


class TestGapEquation:
    def test_zero_temperature_cubic_root(self):
        # at T -> 0, m = omega = lambda = 1 the gap equation becomes
        # Omega^3 - Omega - 6 = 0 with root Omega = 2 exactly
        s = solve_gap(ModelParams(m=1.0, omega=1.0, lam=1.0, beta=300.0))
        assert s.omega_big == pytest.approx(2.0, abs=1e-12)

    def test_residual_below_tolerance(self):
        for mp in random_params(200):
            s = solve_gap(mp)
            assert s.residual < 1e-12

    def test_gap_identity_at_root(self):
        # (1/2) m (omega^2 - Omega^2) + 6 lambda G_tt = 0 at the solution
        for mp in random_params(40):
            s = solve_gap(mp)
            om = s.omega_big
            g = coth_half(mp.beta * om) / (2.0 * mp.m * om)
            lhs = 0.5 * mp.m * (mp.omega**2 - om**2) + 6.0 * mp.lam * g
            assert abs(lhs) < 1e-10 * (om**2 * mp.m)

    def test_omega_grows_with_coupling(self):
        base = dict(m=1.0, omega=1.0, beta=3.0)
        oms = [solve_gap(ModelParams(lam=lam, **base)).omega_big for lam in (0.1, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(oms, oms[1:]))

    def test_pure_quartic_limit(self):
        # omega = 0, T -> 0: Omega^3 = 6 lambda / m^2
        s = solve_gap(ModelParams(m=1.0, omega=0.0, lam=1.0, beta=400.0))
        assert s.omega_big == pytest.approx(6.0 ** (1.0 / 3.0), rel=1e-10)

    def test_step_cap_raises_with_bracket(self, monkeypatch):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        root = solve_gap(p).omega_big
        monkeypatch.setattr(variational, "MAX_STEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            solve_gap(p)
        assert abs(err.value.value - root) <= err.value.bound

    def test_contract_over_the_full_range(self):
        # Newton climbs from L = max(omega, a^(1/3), (2a/beta)^(1/4)) with
        # a = 6 lambda/m^2; rho(L) <= 0 < 0.36 <= rho(sqrt(3) L), so the root
        # lies in [L, sqrt(3) L] and is reached within 7 residual evaluations
        rng = np.random.default_rng(1717)
        eps = sys.float_info.epsilon
        checked = 0
        for _ in range(4000):
            m = float(10.0 ** rng.uniform(-100, 100))
            omega = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-300, 300))
            lam, beta = (float(v) for v in 10.0 ** rng.uniform(-300, 300, size=2))
            p = ModelParams(m=m, omega=omega, lam=lam, beta=beta)
            try:
                a = variational._representable(p)
            except ValidationError:
                continue
            s = solve_gap(p)
            om = s.omega_big
            low = max(omega, a ** (1.0 / 3.0), 2.0**0.25 * a**0.25 / beta**0.25)
            high = math.sqrt(3.0) * low
            rho_high = 1.0 - (omega / high) ** 2 - a / high / high / high * coth_half(beta * high)
            assert s.residual <= 8.0 * eps * om * om, p
            assert s.iterations <= 7, p
            assert low * (1.0 - 1e-13) <= om <= high, p
            assert rho_high >= 0.36, p
            checked += 1
        assert checked >= 2000

    def test_tiny_coupling_at_zero_temperature(self):
        # omega = 0, T -> 0: Omega^3 = 6 lambda / m^2 even where Omega^2 is far
        # below any absolute tolerance
        s = solve_gap(ModelParams(m=1.0, omega=0.0, lam=1e-300, beta=1e300))
        assert s.omega_big == pytest.approx((6e-300) ** (1.0 / 3.0), rel=1e-12)


class TestTrialFunctional:
    def test_root_minimizes(self):
        for mp in random_params(25):
            s = solve_gap(mp)
            f_root = fbar(mp, s.omega_big)
            assert f_root == pytest.approx(s.f0, rel=1e-12, abs=1e-12)
            for factor in (0.5, 0.9, 1.1, 2.0):
                assert fbar(mp, factor * s.omega_big) >= f_root - 1e-13 * abs(f_root)

    def test_boundary_branches_lose(self):
        # Fbar blows up on both sides of the root
        mp = ModelParams(1.0, 1.0, 1.0, 1.0)
        root = solve_gap(mp)
        assert fbar(mp, 1e-3) > 10.0 * abs(root.f0)
        assert fbar(mp, 1e3) > 10.0 * abs(root.f0)

    def test_unrepresentable_frequency_rejected(self):
        # omega^2 or Omega^2 overflows: a ValidationError, not an OverflowError;
        # a non-finite Omega is rejected, not carried through as nan or inf
        unit = ModelParams(1.0, 1.0, 1.0, 1.0)
        for mp, om in ((ModelParams(1.0, 1e200, 1.0, 1.0), 2e200),
                       (unit, 1e200), (unit, math.nan), (unit, math.inf)):
            with pytest.raises(ValidationError):
                fbar(mp, om)


class TestF0:
    def test_zero_temperature_value(self):
        # F0(T=0) = Omega/2 - 3 lambda/(4 m^2 Omega^2) -> 1 - 3/16 = 0.8125 at
        # m = omega = lambda = 1 (Omega = 2)
        s = solve_gap(ModelParams(1.0, 1.0, 1.0, 300.0))
        assert s.f0 == pytest.approx(0.8125, abs=1e-10)

    def test_published_value_beta5(self):
        s = solve_gap(ModelParams(1.0, 1.0, 1.0, 5.0))
        assert s.f0 == pytest.approx(0.812491, abs=5e-7)

    def test_matches_fbar_at_root(self):
        for mp in random_params(25):
            s = solve_gap(mp)
            assert s.f0 == pytest.approx(fbar(mp, s.omega_big), rel=1e-12, abs=1e-12)

    def test_outside_double_precision_is_a_validation_error(self):
        # F0 ~ T ln(beta Omega) = 1e306 * (-527) overflows although beta*Omega
        # is far from the bottom of double range
        with pytest.raises(ValidationError) as err:
            solve_gap(ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1e-306))
        assert str(err.value) == "F0 is outside double precision at beta*Omega = 5.89e-230"

    def test_beta_omega_1e4_finite(self):
        s = solve_gap(ModelParams(m=1.0, omega=10.0, lam=0.5, beta=1000.0))
        assert math.isfinite(s.f0)
        assert s.residual < 1e-12


def finite_or_none(closed, params, omega_big):
    """The closed form's value if it is finite; None if it leaves double range."""
    try:
        value = closed(params, omega_big)
    except ValidationError:
        return None
    return value if math.isfinite(value) else None


CORRECTIONS = ((c2_closed, -1.0), (c3_closed, 1.0), (c4_closed, -1.0))

# m, omega, lambda and beta over decades, from weak to strong coupling and
# from beta*Omega ~ 1e-13 to ~ 1e15
GRID = [
    ModelParams(m=m, omega=om, lam=lam, beta=10.0**e)
    for m, om, lam, e in itertools.product(
        (1e-3, 1.0, 1e3), (0.0, 1.0, 1e3), (1e-12, 1.0, 1e8), range(-12, 13)
    )
]
# beta*Omega ~ 2e-300, 3e-301, 1e300, 2e300 and 1e303
EXTREMES = [
    ModelParams(m=1.0, omega=0.0, lam=1e-300, beta=1e-300),
    ModelParams(m=1.0, omega=0.0, lam=1e-300, beta=1e-301),
    ModelParams(m=1.0, omega=1.0, lam=1e-12, beta=1e300),
    ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1e300),
    ModelParams(m=1e3, omega=1e3, lam=1e-12, beta=1e300),
]


class TestRangeSweep:
    def check_root(self, p):
        s = solve_gap(p)
        om = s.omega_big
        assert math.isfinite(om) and om > 0.0, p
        assert math.isfinite(s.f0), p
        assert s.residual <= 8.0 * sys.float_info.epsilon * om * om, p
        return s

    def test_grid(self):
        for p in GRID:
            s = self.check_root(p)
            for closed, sign in CORRECTIONS:
                value = finite_or_none(closed, p, s.omega_big)
                assert value is not None and sign * value > 0.0, (p, closed.__name__)

    def test_extreme_beta_omega(self):
        xs = []
        for p in EXTREMES:
            s = self.check_root(p)
            xs.append(p.beta * s.omega_big)
            for closed, sign in CORRECTIONS:
                value = finite_or_none(closed, p, s.omega_big)
                # only the high-temperature poles leave double range
                if xs[-1] > 1.0:
                    assert value is not None, (p, closed.__name__)
                assert value is None or sign * value > 0.0, (p, closed.__name__)
        assert min(xs) < 1e-299 and max(xs) >= 1e303

    def test_corrections_finite_down_to_their_floor(self):
        # the 1/x^k high-temperature poles take c2, c3, c4 out of double
        # range below these beta*Omega; above them every decade is finite
        floors = {c2_closed: 1e-101, c3_closed: 1e-75, c4_closed: 1e-59}
        for e in range(-300, 301):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=10.0**e)
            s = self.check_root(p)
            x = p.beta * s.omega_big
            for closed, sign in CORRECTIONS:
                value = finite_or_none(closed, p, s.omega_big)
                if x >= floors[closed]:
                    assert value is not None and sign * value > 0.0, (p, closed.__name__)


class TestOutOfRangeCli:
    @pytest.mark.parametrize("argv", [
        ["point", "--beta", "1e-300"],
        ["point", "--beta", "1e-170", "--order", "4"],
        ["point", "--beta", "1e-100"],
        ["point", "--omega", "1e200"],
        ["point", "--lambda", "1e300", "--mass", "1e-300", "--order", "0"],
        ["point", "--quad", "--beta", "1e-100"],
        ["oracle-check", "--beta", "1e-100"],
        ["point", "--order", "0", "--beta", "1e-306"],
    ])
    def test_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["point", "--quad", "--beta", "1e-100"],
        ["oracle-check", "--beta", "1e-100"],
        ["sweep", "--var", "beta", "--from", "1e-100", "--to", "1",
         "--points", "3", "--log", "--quad"],
    ])
    def test_correction_below_its_floor_stops_before_the_quadrature(
            self, argv, capsys, monkeypatch):
        # beta*Omega = 1.86e-75 is below c4's floor of 1e-59: c4 overflows
        # to -inf, which series reports before any quadrature runs on it
        calls = []
        monkeypatch.setattr(runs, "quad_correction",
                            lambda *args: calls.append(args))
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: c4 is outside double precision at beta*Omega = 1.86e-75\n")
        assert calls == []

    def test_tiny_beta_keeps_f0(self, capsys):
        # high-temperature limit at m = omega = lambda = 1: coth(x/2) -> 2/x
        # gives Omega^4 = 12/beta and F0 = (ln(beta Omega) - 1/4)/beta
        beta = 1e-300
        assert main(["point", "--beta", "1e-300", "--order", "0", "--format", "json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        omega_big = (12.0 / beta) ** 0.25
        assert row["omega_big"] == pytest.approx(omega_big, rel=1e-8)
        assert row["f0"] == pytest.approx((math.log(beta * omega_big) - 0.25) / beta, rel=1e-8)
