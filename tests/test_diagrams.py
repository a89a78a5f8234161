"""Diagram validation and quadrature-oracle consistency checks."""

import math

import numpy as np
import pytest

from quartic_vpe.core import ModelParams
from quartic_vpe.diagrams import (
    DiagramSpec,
    QuadratureSpec,
    _slot_orderings,
    builtin_diagrams,
    quad_correction,
    quad_diagram,
)
from quartic_vpe.errors import ConvergenceError, ValidationError
from quartic_vpe.series import c2_closed, c3_closed, c4_closed
from quartic_vpe.variational import solve_gap

RNG = np.random.default_rng(61803)

# Zero-temperature coefficients of the three fourth-order topologies,
# derived symbolically from their cluster integrals; the closed-form
# fourth-order correction approaches -3 lam^4/(32768 m^8 W^11) times
# their sum (202496).
ZERO_T_COEFF = {"4a": 34560, "4b": 129024, "4c": 38912}


def spectral_ring_value(p, omega_big, n_cut=5000):
    """Ring-diagram contribution via its exact frequency-space sum.

    The ring is a cyclic convolution of four double bonds, so its
    simplex integral collapses to (1/beta) * sum_k h_k^4 where h_k is
    the Fourier coefficient of the squared propagator,

        G^2(s) = (1 + cosh(2W(beta/2 - s))) / (8 m^2 W^2 sinh^2(x/2)),
        h_k = (beta delta_k0 + 4W sinh(x)/(nu_k^2 + 4W^2))
              / (8 m^2 W^2 sinh^2(x/2)),

    with x = beta*W and nu_k = 2 pi k / beta.  Completely independent of
    the panel quadrature.
    """
    beta, m, w = p.beta, p.m, omega_big
    x = beta * w
    k = np.arange(-n_cut, n_cut + 1)
    nu = 2.0 * math.pi * k / beta
    denom = 8.0 * m * m * w * w * math.sinh(0.5 * x) ** 2
    h = (4.0 * w * math.sinh(x) / (nu * nu + 4.0 * w * w)) / denom
    h[k == 0] += beta / denom
    integral = float(np.sum(h**4)) / beta
    ring = next(d for d in builtin_diagrams() if d.label == "4a")
    return ring.sign * p.lam**4 / math.factorial(4) * ring.symmetry_factor * integral


class TestDiagramSpec:
    def test_builtin_inventory(self):
        diagrams = builtin_diagrams()
        assert [d.label for d in diagrams] == ["2", "3", "4a", "4b", "4c"]
        assert [d.order for d in diagrams] == [2, 3, 4, 4, 4]
        assert [d.symmetry_factor for d in diagrams] == [24, 1728, 62208, 248832, 55296]

    def test_signs_alternate(self):
        signs = {d.label: d.sign for d in builtin_diagrams()}
        assert signs == {"2": -1, "3": 1, "4a": -1, "4b": -1, "4c": -1}

    def test_degree_rule_rejects_unbalanced_powers(self):
        # the double-ladder with one single bond promoted to a double
        # bond leaves vertices with degree 5 and 3
        with pytest.raises(ValidationError):
            DiagramSpec(
                order=4,
                edges=((0, 1, 2), (2, 3, 2), (0, 2, 2), (0, 3, 1), (1, 2, 1), (1, 3, 1)),
                symmetry_factor=1,
                label="bad",
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            DiagramSpec(order=2, edges=((0, 0, 2), (0, 1, 2)), symmetry_factor=1, label="loop")

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            DiagramSpec(
                order=4,
                edges=((0, 1, 4), (2, 3, 4)),
                symmetry_factor=1,
                label="split",
            )

    def test_vertex_bounds_and_power(self):
        with pytest.raises(ValidationError):
            DiagramSpec(order=2, edges=((0, 2, 4),), symmetry_factor=1, label="oob")
        with pytest.raises(ValidationError):
            DiagramSpec(order=2, edges=((0, 1, 0),), symmetry_factor=1, label="pow")
        with pytest.raises(ValidationError):
            DiagramSpec(order=1, edges=(), symmetry_factor=1, label="tiny")
        with pytest.raises(ValidationError):
            DiagramSpec(order=2, edges=((0, 1, 4),), symmetry_factor=0, label="sym")


class TestOrderingClasses:
    def test_multiplicities_count_every_ordering(self):
        for d in builtin_diagrams():
            reduced, _ = _slot_orderings(d, "reduced")
            full, _ = _slot_orderings(d, "full")
            assert sum(count for count, _ in reduced) == math.factorial(d.order - 1)
            assert sum(count for count, _ in full) == math.factorial(d.order)

    def test_order_four_reflection_classes(self):
        counts = {
            d.label: len(_slot_orderings(d, "reduced")[0])
            for d in builtin_diagrams()
            if d.order == 4
        }
        assert counts == {"4a": 2, "4b": 2, "4c": 3}


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes_per_panel=1)
        with pytest.raises(ValidationError):
            QuadratureSpec(nodes_per_panel=5)
        with pytest.raises(ValidationError):
            QuadratureSpec(panels_per_dim=0)
        with pytest.raises(ValidationError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValidationError):
            QuadratureSpec(max_refinements=0)
        with pytest.raises(ValidationError):
            QuadratureSpec(chunk_nodes=0)


class TestOracleAgreement:
    def test_closed_forms_reproduced(self):
        # the closed forms and the quadrature share nothing but the
        # propagator, yet agree to machine precision
        for m, om, lam, beta in [(1.0, 1.0, 1.0, 2.0), (0.9, 1.3, 0.4, 2.7), (1.2, 0.7, 2.5, 0.3)]:
            p = ModelParams(m=m, omega=om, lam=lam, beta=beta)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 2) == pytest.approx(c2_closed(p, w), rel=1e-12)
            assert quad_correction(p, w, 3) == pytest.approx(c3_closed(p, w), rel=1e-12)
            assert quad_correction(p, w, 4) == pytest.approx(c4_closed(p, w), rel=1e-10)

    def test_ring_against_spectral_sum(self):
        p = ModelParams(m=1.1, omega=0.8, lam=1.7, beta=2.0)
        w = solve_gap(p).omega_big
        ring = next(d for d in builtin_diagrams() if d.label == "4a")
        assert quad_diagram(p, w, ring) == pytest.approx(
            spectral_ring_value(p, w), rel=1e-12
        )

    def test_full_mode_matches_reduced(self):
        # integrating all n times with the 1/beta factor must reproduce
        # the translation-reduced value on the thermal circle
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=3.0)
        w = solve_gap(p).omega_big
        diagrams = builtin_diagrams()
        # full mode merges only identical edge lists, so 4a-4c also check
        # the reflection pairing of reduced mode
        for label in ("2", "3", "4a", "4b", "4c"):
            d = next(di for di in diagrams if di.label == label)
            reduced = quad_diagram(p, w, d, mode="reduced")
            full = quad_diagram(p, w, d, mode="full")
            assert full == pytest.approx(reduced, rel=1e-10)

    def test_vertex_relabeling_invariance(self):
        p = ModelParams(m=1.0, omega=0.5, lam=2.0, beta=1.5)
        w = solve_gap(p).omega_big
        ladder = next(d for d in builtin_diagrams() if d.label == "4b")
        relabeled = DiagramSpec(
            order=4,
            edges=((2, 3, 2), (0, 1, 2), (2, 0, 1), (2, 1, 1), (3, 0, 1), (3, 1, 1)),
            symmetry_factor=ladder.symmetry_factor,
            label="4b-relabeled",
        )
        assert quad_diagram(p, w, relabeled) == pytest.approx(
            quad_diagram(p, w, ladder), rel=1e-12
        )

    def test_low_temperature_per_diagram_coefficients(self):
        # at beta = 200 each topology sits on its own zero-temperature
        # value, distinguishing the three fourth-order diagrams
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=200.0)
        w = solve_gap(p).omega_big
        scale = -3.0 * p.lam**4 / (32768.0 * p.m**8 * w**11)
        light = QuadratureSpec(nodes_per_panel=10, rel_tol=1e-5, max_refinements=1)
        for d in builtin_diagrams():
            if d.order != 4:
                continue
            value = quad_diagram(p, w, d, qspec=light)
            assert value == pytest.approx(scale * ZERO_T_COEFF[d.label], rel=2e-5)

    def test_low_temperature_lower_orders(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=200.0)
        w = solve_gap(p).omega_big
        assert quad_correction(p, w, 2) == pytest.approx(
            -3.0 * p.lam**2 / (8.0 * p.m**4 * w**5), rel=1e-8
        )
        assert quad_correction(p, w, 3) == pytest.approx(
            27.0 * p.lam**3 / (16.0 * p.m**6 * w**8), rel=1e-8
        )


class TestFailureModes:
    def test_non_convergence_reports_estimate(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        w = solve_gap(p).omega_big
        starved = QuadratureSpec(
            nodes_per_panel=6, panels_per_dim=1, rel_tol=1e-15, max_refinements=1
        )
        ring = next(d for d in builtin_diagrams() if d.label == "4a")
        with pytest.raises(ConvergenceError) as err:
            quad_diagram(p, w, ring, qspec=starved)
        assert err.value.value is not None
        assert err.value.bound is not None and err.value.bound > 0.0

    def test_embedded_bound_covers_the_error(self):
        # the full-vs-embedded difference carried by the error bounds the
        # distance of the returned value from the closed form, from the
        # uniform to the graded panel regime, at the smallest rule
        # QuadratureSpec accepts
        starved = QuadratureSpec(
            nodes_per_panel=6, panels_per_dim=1, rel_tol=1e-15, max_refinements=1
        )
        for beta in (0.5, 2.0, 5.0, 20.0):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=beta)
            w = solve_gap(p).omega_big
            for order, closed in ((2, c2_closed), (3, c3_closed), (4, c4_closed)):
                with pytest.raises(ConvergenceError) as err:
                    quad_correction(p, w, order, qspec=starved)
                assert abs(err.value.value - closed(p, w)) <= err.value.bound

    def test_argument_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        ring = next(d for d in builtin_diagrams() if d.label == "4a")
        with pytest.raises(ValidationError):
            quad_diagram(p, -1.0, ring)
        with pytest.raises(ValidationError):
            quad_diagram(p, 2.0, ring, mode="sideways")
        with pytest.raises(ValidationError):
            quad_correction(p, 2.0, 5)
