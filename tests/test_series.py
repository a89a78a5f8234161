"""Closed-form corrections: frozen values, regimes, signs, and scaling."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from quartic_vpe import series
from quartic_vpe.core import ModelParams, RescaledParams, harmonic_free_energy, unrescale
from quartic_vpe.errors import ConvergenceError, ValidationError
from quartic_vpe.series import (
    X_ASYMPTOTIC,
    closed_correction,
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
    # tiny masses and a huge coupling: m**(2n) and Omega**(3n-1) leave
    # double range, while u = lam/(m^2 Omega^3) and every c_n stay ordinary
    (1.0, 1.0, 1e-40, 1.0): (
        8.4343266530174928e26,
        -8.785756930226555e24,
        6.5893176976699163e24,
        -1.2065162728835425e25,
    ),
    (1.0, 1.0, 1e-53, 1.0): (
        3.9148676411688635e35,
        -4.0779871262175662e33,
        3.0584903446631746e33,
        -5.6001524597883591e33,
    ),
    (1.0, 1.0, 1e-79, 1.0): (
        8.4343266530174924e52,
        -8.7857569302265546e50,
        6.589317697669916e50,
        -1.2065162728835425e51,
    ),
    (8.267042840222044e139, 0.0, 1.833269125153416e70, 1.3814832364797484e-37): (
        2.1499746612798357e9,
        -6.0321639186647446e35,
        1.2064327837329489e36,
        -5.328411461487191e36,
    ),
    # beta*Omega = 2.8e-152: R_2's pole 256/x**3 ~ 1e457 is far outside
    # double range, while u**2 R_2 and c2 are ordinary
    (1.4973786522644435e-197, 5.81063629281601e-12, 3.968506157638523e29,
     4.792912239431357e-141): (
        5.8106362928160101e-12,
        -0.75813809026061671,
        3.1662327197320767e-70,
        -2.920128588199968e-139,
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
    # near the pole, down to where R_n itself is near the top of double range
    (2, 1e-3): 256000000000.00212,
    (3, 1e-3): 16384000000000067.0,
    (4, 1e-3): 1.6672358400000067e20,
    (2, 1e-100): 2.5599999999999998e302,
    (3, 1e-70): 1.6384e284,
    (4, 1e-70): 1.66723584e288,
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

    def test_continuity_at_asymptotic_threshold(self):
        # R_4 grows linearly in x, so a +/- eps probe moves the value by
        # ~202496*eps on its own; the branch jump itself is at most 1 ulp
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


# Each temperature factor as the imaginary-time integrals give it,
# R_n = sum_k q**k p_k(x) / (1 - q)**(2n) with q = exp(-x): the integer
# coefficients of p_0, p_1, ... (lowest power of x first).  Quadrature
# checks these polynomials; TestHyperbolicForm ties series to them.
Q_POLYNOMIALS = {
    2: [[8], [64], [0, 96], [-64], [-8]],
    3: [[96], [1536], [-96, 3456, 256], [-3072, 0, 2048],
        [-96, -3456, 256], [1536], [96]],
    4: [[0, 202496], [0, 4659200, 110592],
        [0, 5186048, 13188096, 1437696, 36864],
        [0, -25159680, 11071488, 16809984, 2064384],
        [0, 0, -48740352, 0, 6635520],
        [0, 25159680, 11071488, -16809984, 2064384],
        [0, -5186048, 13188096, -1437696, 36864],
        [0, -4659200, 110592], [0, -202496]],
}
# The branch below X_ASYMPTOTIC, R_n = P_n / (W**n x**k) with
# W = (sinh(x/2) / (x/2))**2 and H = sinh(x) / x, as (P_n, k): P_n's
# coefficients keyed by the powers of (x, W, H) of their monomial.
HYPERBOLIC = {
    2: ({(0, 0, 0): 96, (0, 0, 1): 160, (2, 1, 1): 16}, 3),
    3: ({(0, 0, 0): 2560, (0, 0, 1): 6912, (0, 1, 0): 6912, (2, 1, 0): 256,
         (2, 2, 0): 2112, (4, 3, 0): 96}, 4),
    4: ({(0, 0, 0): 10838016, (0, 0, 1): 39370752, (0, 1, 0): 64819200,
         (0, 1, 1): 51695616, (2, 1, 0): 2211840, (2, 2, 0): 13851648,
         (2, 1, 1): 2875392, (2, 2, 1): 11748352, (4, 2, 0): 36864,
         (4, 3, 0): 110592, (4, 3, 1): 404992}, 4),
}
# The q -> 0 branch R_n = P / x**k as (P, k).
ASYMPTOTES = {2: (8, 0), 3: (96, 0), 4: (202496, -1)}

# W = (1 - q)**2 / (q x**2) and H = (1 - q**2) / (2 q x), the identities
# sinh(x/2)**2 = (1 - q)**2 / (4q) and sinh(x) = (1 - q**2) / (2q), as
# Laurent polynomials in (q, x) keyed by the powers of q and x
W_IN_Q = {(-1, -2): 1, (0, -2): -2, (1, -2): 1}
H_IN_Q = {(-1, -1): Fraction(1, 2), (1, -1): Fraction(-1, 2)}


def _times(a, b):
    product = {}
    for (i, j), c in a.items():
        for (k, m), d in b.items():
            product[i + k, j + m] = product.get((i + k, j + m), 0) + c * d
    return product


def _q_form(order, x):
    """R_n(x) from its q-polynomial at 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = Decimal(x)
        q = (-x).exp()
        numerator = sum(q**k * sum(c * x**i for i, c in enumerate(p))
                        for k, p in enumerate(Q_POLYNOMIALS[order]))
        return numerator / (1 - q) ** (2 * order)


class TestHyperbolicForm:
    """The branch below X_ASYMPTOTIC against the q-polynomials."""

    @pytest.mark.parametrize("order", (2, 3, 4))
    def test_exact_identity_with_q_polynomial(self, order):
        # R_n = P_n / (W**n x**k) = numerator / (1 - q)**(2n), so
        # numerator = P_n q**n x**(2n - k), exactly
        monomials, pole = HYPERBOLIC[order]
        total = {}
        for (a, b, c), coefficient in monomials.items():
            term = {(order, 2 * order - pole + a): coefficient}
            for factor, power in ((W_IN_Q, b), (H_IN_Q, c)):
                for _ in range(power):
                    term = _times(term, factor)
            for key, value in term.items():
                total[key] = total.get(key, 0) + value
        recorded = {(k, i): c for k, p in enumerate(Q_POLYNOMIALS[order])
                    for i, c in enumerate(p) if c}
        assert {key: v for key, v in total.items() if v} == recorded

    @pytest.mark.parametrize("order", (2, 3, 4))
    def test_transcription_matches_factor(self, order):
        monomials, pole = HYPERBOLIC[order]
        for x in (1e-300, 1e-3, 0.5, 1.0, 5.0, 20.0, X_ASYMPTOTIC):
            w = (math.sinh(x / 2) / (x / 2)) ** 2
            h = math.sinh(x) / x
            want = sum(c * x**a * w**b * h**e for (a, b, e), c in monomials.items())
            regular, k = series._FACTORS[order](x)
            assert k == pole
            assert regular == pytest.approx(want / w**order, rel=1e-14), x

    def test_accurate_against_the_q_polynomial(self):
        # at x = 1e-8 the q-form cancels 24 of its 80 digits; below that
        # the frozen pole values cover the factors
        for x in np.geomspace(1e-8, X_ASYMPTOTIC, 100):
            for order in (2, 3, 4):
                exact = _q_form(order, float(x))
                error = abs(Decimal(temperature_factor(order, float(x))) - exact)
                assert error <= Decimal("4e-15") * exact, (order, x)


class TestLaurentDerivation:
    """The q -> 0 branch, the q**0 term of the q-polynomials."""

    @pytest.mark.parametrize("order", (2, 3, 4))
    def test_asymptote_is_the_q0_term(self, order):
        constant, pole = ASYMPTOTES[order]
        # p_0 is constant * x**(-pole)
        assert Q_POLYNOMIALS[order][0] == [0] * -pole + [constant]
        assert series._FACTORS[order](2.0 * X_ASYMPTOTIC) == (constant, pole)


class TestSymmetries:
    """x -> x/sqrt(m) maps H(m, omega, lam) onto H(1, omega, lam/m**2).

    So F(m 2**j, omega, lam 4**j, beta) = F(m, omega, lam, beta), and with
    powers of two every input scales exactly: any difference is the code's.
    """

    @staticmethod
    def _outcome(params):
        try:
            fe = series_eval(params)
        except (ValidationError, ConvergenceError) as exc:
            return type(exc)
        return [v.hex() for v in (fe.omega_big, fe.f0, fe.c2, fe.c3, fe.c4)]

    def test_series_mass_scaling_is_bit_identical(self):
        rng = np.random.default_rng(20261019)

        def log_uniform(decades):
            return float(10.0 ** rng.uniform(-decades, decades))

        for _ in range(6000):
            m = log_uniform(100)
            omega = 0.0 if rng.random() < 0.25 else log_uniform(100)
            params = ModelParams(m=m, omega=omega, lam=log_uniform(250),
                                 beta=log_uniform(250))
            j = int(rng.integers(-30, 31))
            twin = ModelParams(m=math.ldexp(m, j), omega=omega,
                               lam=math.ldexp(params.lam, 2 * j),
                               beta=params.beta)
            assert self._outcome(twin) == self._outcome(params), (params, j)


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
            assert closed_correction(scaled, omega_big, 2) == pytest.approx(
                kappa**2 * closed_correction(p, omega_big, 2), rel=1e-13
            )
            assert closed_correction(scaled, omega_big, 3) == pytest.approx(
                kappa**3 * closed_correction(p, omega_big, 3), rel=1e-13
            )
            assert closed_correction(scaled, omega_big, 4) == pytest.approx(
                kappa**4 * closed_correction(p, omega_big, 4), rel=1e-13
            )

    def test_zero_temperature_asymptotics(self):
        # at beta*Omega = 5000 the factors sit on their q -> 0 limits:
        # c2 -> -3 lam^2/(8 m^4 W^5), c3 -> 27 lam^3/(16 m^6 W^8),
        # c4 -> -(2373/128) lam^4/(m^8 W^11)
        for lam, m, w in [(1.0, 1.0, 1.7), (0.3, 1.4, 2.9), (8.0, 0.6, 4.1)]:
            p = ModelParams(m=m, omega=1.0, lam=lam, beta=5000.0 / w)
            assert closed_correction(p, w, 2) == pytest.approx(
                -3.0 * lam**2 / (8.0 * m**4 * w**5), rel=1e-10
            )
            assert closed_correction(p, w, 3) == pytest.approx(
                27.0 * lam**3 / (16.0 * m**6 * w**8), rel=1e-10
            )
            assert closed_correction(p, w, 4) == pytest.approx(
                -(2373.0 / 128.0) * lam**4 / (m**8 * w**11), rel=1e-10
            )
        # beta*Omega = 1e303, where 202496 * beta*Omega overflows
        p = ModelParams(m=1e3, omega=1e3, lam=1e-12, beta=1e300)
        assert closed_correction(p, 1e3, 4) == pytest.approx(
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
        # away from the gap root (Omega = 1 at beta = 1e-100, where the root is
        # 1.9e25) c4 ~ -15263/(beta**5 Omega**16) = -1.5e504 really overflows,
        # and so does R_2(1e-103) ~ 2.56e311
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1e-100)
        with pytest.raises(ValidationError, match=r"^c4 is outside double precision"):
            closed_correction(p, 1.0, 4)
        with pytest.raises(ValidationError, match=r"^R_2 is outside double precision"):
            temperature_factor(2, 1e-103)

    def test_omega_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        for bad in (0.0, -2.0, math.nan, math.inf):
            for order in (2, 3, 4):
                with pytest.raises(ValidationError):
                    closed_correction(p, bad, order)

    def test_order_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1.0)
        for bad in (0, 1, 5):
            with pytest.raises(ValidationError, match=r"^no closed-form correction of order"):
                closed_correction(p, 1.0, bad)


class TestSeriesEval:
    def test_shared_trial_frequency(self):
        # corrections are evaluated at the zeroth-order stationary point,
        # never re-optimized per order
        p = ModelParams(m=1.0, omega=1.0, lam=3.0, beta=1.5)
        s = series_eval(p)
        assert s.c2 == closed_correction(p, s.omega_big, 2)
        assert s.c3 == closed_correction(p, s.omega_big, 3)
        assert s.c4 == closed_correction(p, s.omega_big, 4)

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
