"""Closed-form corrections: frozen values, regimes, signs, and scaling."""

import math

import numpy as np
import pytest

from quartic_vpe.core import ModelParams, RescaledParams, harmonic_free_energy, unrescale
from quartic_vpe.errors import ValidationError
from quartic_vpe.series import (
    X_ASYMPTOTIC,
    X_SERIES_THRESHOLD,
    c2_closed,
    c3_closed,
    c4_closed,
    series_eval,
    temperature_factor,
)
from quartic_vpe.variational import solve_gap

RNG = np.random.default_rng(90210)

# Reference values computed with a 50-digit implementation of the same
# closed forms, with the gap root verified by an independent root-finder
# (residual < 1e-40).  Keys are (lam, omega, m, beta).
FROZEN_POINTS = {
    (1.0, 1.0, 1.0, 5.0): (
        2.0000495158458705,
        -0.011723685354059934,
        0.0065970824575519153,
        -0.0090648264629923669,
    ),
    (0.4, 1.3, 0.9, 2.7): (
        1.8264318738844255,
        -0.0049134244840081952,
        0.0019337826311282173,
        -0.0018813632207612683,
    ),
    (1.0, 0.0, 1.0, 2.0): (
        1.8474793915859633,
        -0.023623823348219639,
        0.021769981339276308,
        -0.04976913731777037,
    ),
    (2.5, 0.7, 1.2, 0.3): (
        2.9749731174094273,
        -0.21945357935448781,
        0.3881544195203965,
        -1.5197384810732964,
    ),
    (1.0, 1.0, 1.0, 5000.0): (
        2.0,
        -0.01171875,
        0.006591796875,
        -0.009052276611328125,
    ),
    (1.0, 1.0, 1.0, 0.004): (
        7.4348205185945105,
        -20.083405829643431,
        39.437253118461143,
        -171.01751075790391,
    ),
}

# Temperature factors R_n(x) at 50-digit precision, keyed by (n, x).
FROZEN_FACTORS = {
    (2, 0.05): 2048000.1066582021,
    (2, 0.5): 2049.0582990756929,
    (2, 2.0): 35.809835945090548,
    (2, 10.0): 8.0043610649405443,
    (2, 40.0): 8.0000000000000004,
    (3, 0.05): 2621440068.2693757,
    (3, 0.5): 262212.53751609472,
    (3, 2.0): 1096.4558552619235,
    (3, 10.0): 96.096031659799696,
    (3, 40.0): 96.000000000000009,
    (4, 0.05): 26675774121572.329,
    (4, 0.5): 2668258804.3167122,
    (4, 2.0): 11118364.518384838,
    (4, 10.0): 2028320.4801236742,
    (4, 40.0): 8099840.0000000018,
}


def random_params(n, lam_hi=50.0, beta_omega_cap=200.0):
    out = []
    for _ in range(n):
        m = float(RNG.uniform(0.3, 3.0))
        om = float(RNG.uniform(0.0, 4.0))
        lam = float(10.0 ** RNG.uniform(-2, math.log10(lam_hi)))
        beta = float(RNG.uniform(0.05, beta_omega_cap / max(om, 1.0)))
        out.append(ModelParams(m=m, omega=om, lam=lam, beta=beta))
    return out


class TestTemperatureFactors:
    def test_frozen_values(self):
        for (order, x), ref in FROZEN_FACTORS.items():
            assert temperature_factor(order, x) == pytest.approx(ref, rel=1e-12)

    def test_continuity_at_series_threshold(self):
        t = X_SERIES_THRESHOLD
        for order in (2, 3, 4):
            below = temperature_factor(order, t * (1.0 - 1e-10))
            above = temperature_factor(order, t * (1.0 + 1e-10))
            assert below == pytest.approx(above, rel=5e-9)

    def test_continuity_at_asymptotic_threshold(self):
        # R_4 grows linearly in x, so a +/- eps probe moves the value by
        # ~202496*eps on its own; the branch jump itself is ~1e-18
        t = X_ASYMPTOTIC
        for order in (2, 3, 4):
            below = temperature_factor(order, t - 1e-9)
            above = temperature_factor(order, t + 1e-9)
            assert below == pytest.approx(above, rel=1e-9)

    def test_positive_on_wide_range(self):
        # every correction has a fixed sign because R_n > 0 throughout
        for x in 10.0 ** RNG.uniform(-6, 3, size=400):
            for order in (2, 3, 4):
                assert temperature_factor(order, float(x)) > 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            temperature_factor(5, 1.0)
        with pytest.raises(ValidationError):
            temperature_factor(2, 0.0)
        with pytest.raises(ValidationError):
            temperature_factor(2, math.inf)


class TestClosedCorrections:
    def test_frozen_points(self):
        for (lam, om, m, beta), (omega, c2r, c3r, c4r) in FROZEN_POINTS.items():
            p = ModelParams(m=m, omega=om, lam=lam, beta=beta)
            s = series_eval(p)
            assert s.omega_big == pytest.approx(omega, rel=1e-12)
            assert s.c2 == pytest.approx(c2r, rel=5e-12)
            assert s.c3 == pytest.approx(c3r, rel=5e-12)
            assert s.c4 == pytest.approx(c4r, rel=5e-12)

    def test_sign_pattern(self):
        for p in random_params(100):
            s = series_eval(p)
            assert s.c2 < 0.0
            assert s.c3 > 0.0
            assert s.c4 < 0.0

    def test_lambda_homogeneity_at_fixed_omega(self):
        # at fixed trial frequency, c_n is exactly a monomial of degree n
        for p in random_params(30):
            omega_big = solve_gap(p).omega_big
            kappa = float(RNG.uniform(0.1, 10.0))
            scaled = ModelParams(m=p.m, omega=p.omega, lam=kappa * p.lam, beta=p.beta)
            assert c2_closed(scaled, omega_big) == pytest.approx(
                kappa**2 * c2_closed(p, omega_big), rel=1e-13
            )
            assert c3_closed(scaled, omega_big) == pytest.approx(
                kappa**3 * c3_closed(p, omega_big), rel=1e-13
            )
            assert c4_closed(scaled, omega_big) == pytest.approx(
                kappa**4 * c4_closed(p, omega_big), rel=1e-13
            )

    def test_zero_temperature_asymptotics(self):
        # at beta*Omega = 5000 the factors sit on their q -> 0 limits:
        # c2 -> -3 lam^2/(8 m^4 W^5), c3 -> 27 lam^3/(16 m^6 W^8),
        # c4 -> -(2373/128) lam^4/(m^8 W^11)
        for lam, m, w in [(1.0, 1.0, 1.7), (0.3, 1.4, 2.9), (8.0, 0.6, 4.1)]:
            p = ModelParams(m=m, omega=1.0, lam=lam, beta=5000.0 / w)
            assert c2_closed(p, w) == pytest.approx(
                -3.0 * lam**2 / (8.0 * m**4 * w**5), rel=1e-10
            )
            assert c3_closed(p, w) == pytest.approx(
                27.0 * lam**3 / (16.0 * m**6 * w**8), rel=1e-10
            )
            assert c4_closed(p, w) == pytest.approx(
                -(2373.0 / 128.0) * lam**4 / (m**8 * w**11), rel=1e-10
            )
        # beta*Omega = 1e303, where 202496 * beta*Omega overflows
        p = ModelParams(m=1e3, omega=1e3, lam=1e-12, beta=1e300)
        assert c4_closed(p, 1e3) == pytest.approx(
            -(2373.0 / 128.0) * 1e-48 / (1e24 * 1e33), rel=1e-14, abs=0.0
        )

    def test_finite_at_extreme_beta_omega(self):
        # partial sums stay finite up to beta*Omega ~ 1e4
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=5002.0)
        s = series_eval(p)
        assert s.omega_big * p.beta >= 1e4
        for value in (s.f2, s.f3, s.f4):
            assert math.isfinite(value)

    def test_free_theory_limit(self):
        # lambda -> 0: all corrections vanish and f4 reduces to the
        # harmonic free energy
        for m, om, beta in [(1.0, 1.0, 2.0), (0.7, 2.5, 0.4), (1.3, 0.9, 30.0)]:
            p = ModelParams(m=m, omega=om, lam=1e-14, beta=beta)
            s = series_eval(p)
            href = harmonic_free_energy(om, beta)
            assert abs(s.f4 - href) < 1e-12 * max(1.0, abs(href))

    def test_infinite_result_is_a_validation_error(self):
        # beta*Omega = 1.86e-75, below c4's floor: the pole quotient
        # overflows to inf without raising
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1e-100)
        omega_big = solve_gap(p).omega_big
        with pytest.raises(ValidationError, match=r"^c4 is outside double precision"):
            c4_closed(p, omega_big)
        with pytest.raises(ValidationError, match=r"^R_2 is outside double precision"):
            temperature_factor(2, 1e-103)

    def test_omega_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        for bad in (0.0, -2.0, math.nan, math.inf):
            for closed in (c2_closed, c3_closed, c4_closed):
                with pytest.raises(ValidationError):
                    closed(p, bad)


class TestSeriesEval:
    def test_shared_trial_frequency(self):
        # corrections are evaluated at the zeroth-order stationary point,
        # never re-optimized per order
        p = ModelParams(m=1.0, omega=1.0, lam=3.0, beta=1.5)
        s = series_eval(p)
        assert s.c2 == c2_closed(p, s.omega_big)
        assert s.c3 == c3_closed(p, s.omega_big)
        assert s.c4 == c4_closed(p, s.omega_big)

    def test_max_order_truncation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        s0 = series_eval(p, max_order=0)
        assert s0.c2 is None and s0.f2 is None and s0.f4 is None
        s2 = series_eval(p, max_order=2)
        assert s2.c2 is not None and s2.c3 is None and s2.f3 is None
        s3 = series_eval(p, max_order=3)
        assert s3.c4 is None and s3.f3 is not None and s3.f4 is None

    def test_invalid_max_order(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        for bad in (1, 5, -1):
            with pytest.raises(ValidationError):
                series_eval(p, max_order=bad)

    def test_partial_sums_match_reference_tables(self):
        # unit-scale coupling, beta = 5
        s = series_eval(ModelParams(m=1.0, omega=1.0, lam=1.0, beta=5.0))
        assert s.f2 == pytest.approx(0.800767, abs=5e-6)
        assert s.f3 == pytest.approx(0.807364, abs=5e-6)
        # dimensionless point z = 10, reduced temperature 1
        p = unrescale(RescaledParams(z=10.0, t_reduced=1.0), lam=1.0)
        s = series_eval(p)
        assert s.f3 == pytest.approx(2.262261, abs=5e-6)
        assert s.f4 == pytest.approx(2.262259, abs=5e-6)
        # strong coupling, lam = 20000, beta = 3
        s = series_eval(ModelParams(m=1.0, omega=1.0, lam=20000.0, beta=3.0))
        assert s.f0 == pytest.approx(18.50166, abs=5e-4)
        assert s.f2 == pytest.approx(17.98822, abs=5e-4)
        assert s.f3 == pytest.approx(18.37314, abs=5e-4)
