"""Parameter records, reduced-variable map, propagator, harmonic free energy, exports."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import quartic_vpe
from quartic_vpe.core import (
    ModelParams,
    Propagator,
    RescaledParams,
    coth_half,
    harmonic_free_energy,
    rescale,
    unrescale,
)
from quartic_vpe.errors import ValidationError

from matsubara import propagator_matsubara

RNG = np.random.default_rng(20260823)


def random_params(n, beta_omega_max=50.0):
    out = []
    for _ in range(n):
        m = float(RNG.uniform(0.2, 3.0))
        om = float(RNG.uniform(0.1, 4.0))
        beta = float(RNG.uniform(0.05, beta_omega_max / om))
        lam = float(RNG.uniform(0.01, 10.0))
        out.append(ModelParams(m=m, omega=om, lam=lam, beta=beta))
    return out


def cosh_form(p, s):
    """G(s) = cosh(Omega (beta/2 - s)) / (2 m Omega sinh(beta Omega / 2)), written out."""
    om = p.omega_big
    return math.cosh(om * (p.beta / 2.0 - s)) / (2.0 * p.m * om * math.sinh(p.beta * om / 2.0))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ModelParams(m=0.0, omega=1.0, lam=1.0, beta=1.0)
        with pytest.raises(ValidationError):
            ModelParams(m=1.0, omega=-0.5, lam=1.0, beta=1.0)
        with pytest.raises(ValidationError):
            ModelParams(m=1.0, omega=1.0, lam=0.0, beta=1.0)
        with pytest.raises(ValidationError):
            ModelParams(m=1.0, omega=1.0, lam=1.0, beta=-2.0)
        with pytest.raises(ValidationError):
            RescaledParams(z=-1.0, t_reduced=1.0)
        with pytest.raises(ValidationError):
            RescaledParams(z=1.0, t_reduced=0.0)

    def test_omega_zero_allowed(self):
        ModelParams(m=1.0, omega=0.0, lam=1.0, beta=1.0)

    def test_rescale_requires_unit_mass(self):
        with pytest.raises(ValidationError):
            rescale(ModelParams(m=2.0, omega=1.0, lam=1.0, beta=1.0))

    def test_rescale_example(self):
        # z = 0, T_red = 2, lam = 1 maps to omega = 0, beta = 1/2
        mp = unrescale(RescaledParams(z=0.0, t_reduced=2.0), 1.0)
        assert mp.m == 1.0
        assert mp.omega == 0.0
        assert mp.beta == pytest.approx(0.5, rel=1e-15)

    def test_round_trip(self):
        for _ in range(100):
            z = float(RNG.uniform(0.0, 60.0))
            t = float(RNG.uniform(0.02, 60.0))
            lam = float(RNG.uniform(0.01, 100.0))
            rp = RescaledParams(z=z, t_reduced=t)
            back = rescale(unrescale(rp, lam))
            assert back.z == pytest.approx(z, rel=1e-12, abs=1e-12)
            assert back.t_reduced == pytest.approx(t, rel=1e-12)

    def test_z10_coupling_at_unit_omega(self):
        # z = 10 corresponds to lambda = 20^{-3/2} = 0.01118 at m = omega = 1
        rp = rescale(ModelParams(m=1.0, omega=1.0, lam=20.0**-1.5, beta=1.0))
        assert rp.z == pytest.approx(10.0, rel=1e-12)


class TestPropagator:
    def test_equal_time_value(self):
        p = Propagator(m=1.0, omega_big=1.0, beta=1.0)
        assert p.equal_time() == pytest.approx(1.0 / math.tanh(0.5) / 2.0, rel=1e-14)

    def test_extreme_beta_omega_finite(self):
        # no overflow at beta*Omega = 1e4 and sane small-x behaviour
        p = Propagator(m=1.0, omega_big=100.0, beta=100.0)
        assert p.equal_time() == pytest.approx(1.0 / 200.0, rel=1e-12)
        tiny = Propagator(m=1.0, omega_big=1e-4, beta=1e-4)
        # G(0) -> 1/(m beta Omega^2) as beta*Omega -> 0
        assert tiny.equal_time() == pytest.approx(1e12, rel=1e-6)

    def test_frequency_must_be_positive_and_finite(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                Propagator(m=1.0, omega_big=bad, beta=1.0)


    @pytest.mark.parametrize("call, message", [
        (lambda: Propagator(m=0.0, omega_big=1.0, beta=1.0),
         "propagator requires m > 0, beta > 0, got (m=0.0, beta=1.0)"),
        (lambda: coth_half(0.0), "coth_half needs x > 0, got 0.0"),
    ], ids=["propagator-mass", "coth-half"])
    def test_non_positive_arguments_rejected(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()


class TestMatsubara:
    def test_converges_to_closed_form(self):
        # relative error < 1e-4 at n_max = 1e5 on random parameters; beta*Omega
        # capped so the closed form is not exponentially small at s ~ beta/2,
        # where a power-law partial sum cannot resolve e^{-beta*Omega/2}
        for mp in random_params(20, beta_omega_max=16.0):
            p = Propagator(m=mp.m, omega_big=mp.omega + 0.1, beta=mp.beta)
            s = float(RNG.uniform(0.0, mp.beta))
            partial = propagator_matsubara(p, s, 100_000)
            assert partial == pytest.approx(cosh_form(p, s), rel=1e-4)
        # large beta*Omega is fine at small separation where G stays O(1/2mOmega)
        p = Propagator(m=1.0, omega_big=8.0, beta=5.0)
        for s in (0.0, 0.05, 0.25):
            assert propagator_matsubara(p, s, 100_000) == pytest.approx(
                cosh_form(p, s), rel=1e-4
            )

    def test_error_scales_like_inverse_n(self):
        # at s = 0 the tail is sum 1/w_n^2 ~ 1/n: halving with doubled n_max
        p = Propagator(m=1.0, omega_big=1.0, beta=1.0)
        closed = p.equal_time()
        errs = [abs(propagator_matsubara(p, 0.0, n) - closed) for n in (2000, 4000, 8000)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.05)

    def test_imaginary_parts_cancel(self):
        p = Propagator(m=1.0, omega_big=1.3, beta=2.0)
        s = 0.7
        n = np.arange(-200, 201)
        wn = 2.0 * np.pi * n / p.beta
        terms = np.exp(-1j * wn * s) / (p.m * (wn**2 + p.omega_big**2))
        total = terms.sum() / p.beta
        assert abs(total.imag) < 1e-15
        assert total.real == pytest.approx(propagator_matsubara(p, s, 200), rel=1e-12)

    def test_example_value(self):
        p = Propagator(m=1.0, omega_big=1.0, beta=1.0)
        want = 1.0 / math.tanh(0.5) / 2.0
        assert propagator_matsubara(p, 0.0, 10_000) == pytest.approx(want, abs=1e-4)


class TestHarmonicFreeEnergy:
    def test_closed_form(self):
        for _ in range(30):
            nu = float(RNG.uniform(0.1, 5.0))
            beta = float(RNG.uniform(0.1, 50.0))
            direct = math.log(2.0 * math.sinh(beta * nu / 2.0)) / beta
            assert harmonic_free_energy(nu, beta) == pytest.approx(direct, rel=1e-13)

    def test_extremes(self):
        # beta*nu = 1e-300 and 1e300 stay finite
        assert math.isfinite(harmonic_free_energy(1e-300, 1.0))
        assert harmonic_free_energy(1e300, 1.0) == pytest.approx(0.5e300, rel=1e-14)
        # low-T limit is nu/2
        assert harmonic_free_energy(2.0, 2000.0) == pytest.approx(1.0, rel=1e-14)

    def test_validation(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                harmonic_free_energy(bad, 1.0)
        with pytest.raises(ValidationError):
            harmonic_free_energy(1.0, 0.0)


@pytest.mark.parametrize("name", ["quartic_vpe"] + [
    f"quartic_vpe.{info.name}" for info in pkgutil.iter_modules(quartic_vpe.__path__)
])
def test_exported_names_resolve(name):
    # a renamed function must leave no stale entry in __all__ behind
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


class TestPackageApi:
    """The package re-exports the oracles lazily (PEP 562 ``__getattr__``)."""

    def test_star_import_and_dir_list_every_export(self):
        namespace = {}
        exec("from quartic_vpe import *", namespace)
        assert set(quartic_vpe.__all__) <= namespace.keys()
        assert set(quartic_vpe.__all__) <= set(dir(quartic_vpe))

    def test_lazy_names_are_the_oracles_own(self):
        from quartic_vpe import diagrams, spectrum

        for name in ("DiagramSpec", "builtin_diagrams", "quad_correction",
                     "quad_diagram"):
            assert getattr(quartic_vpe, name) is getattr(diagrams, name)
        for name in ("ExactResult", "exact_free_energy"):
            assert getattr(quartic_vpe, name) is getattr(spectrum, name)

    def test_unknown_attribute_message_is_the_standard_one(self):
        with pytest.raises(AttributeError) as exc:
            quartic_vpe.no_such_name
        assert str(exc.value) == "module 'quartic_vpe' has no attribute 'no_such_name'"

    def test_readme_library_snippet_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
        exec(block.split("```", 1)[0], {})
