"""Diagram validation and quadrature-oracle consistency checks."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from quartic_vpe.core import ModelParams
from quartic_vpe.diagrams import (
    GRADING_THRESHOLD,
    LADDER,
    REL_TOL,
    X_SECTOR,
    DiagramSpec,
    _nodes_and_weights,
    _panel_edges,
    _rungs,
    _sector_sum,
    _slot_orderings,
    builtin_diagrams,
    quad_correction,
    quad_diagram,
)
from quartic_vpe.errors import ConvergenceError, ValidationError
from quartic_vpe.series import _PREFACTORS, closed_correction
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


def exact_sector_sum(diagram):
    """Sum over the reduced orderings and their long gap j of
    prod_(k != j) 1/cov_k(j), with each edge's two arcs spelled out: gap k
    runs from slot k to k + 1, and the edge between slots a < b covers gaps
    a .. b - 1 on one arc and the rest of the circle on the other."""
    n = diagram.order
    total = Fraction(0)
    for count, edge_slots in _slot_orderings(diagram, "reduced"):
        for j in range(n):
            cov = dict.fromkeys(range(n), 0)
            for (a, b), power in edge_slots:
                inner = set(range(a, b))
                for k in (set(range(n)) - inner if j in inner else inner):
                    cov[k] += power
            term = Fraction(count)
            for k in range(n):
                if k != j:
                    term /= cov[k]
            total += term
    return total


def point_at(x):
    """The point at m = omega = lambda = 1 where beta * Omega equals x."""
    p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=x / 2.0)
    for _ in range(60):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=x / solve_gap(p).omega_big)
    return p


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
            reduced = _slot_orderings(d, "reduced")
            full = _slot_orderings(d, "full")
            assert sum(count for count, _ in reduced) == math.factorial(d.order - 1)
            assert sum(count for count, _ in full) == math.factorial(d.order)

    def test_order_four_reflection_classes(self):
        counts = {
            d.label: len(_slot_orderings(d, "reduced"))
            for d in builtin_diagrams()
            if d.order == 4
        }
        assert counts == {"4a": 2, "4b": 2, "4c": 3}


class TestPanelEdges:
    def test_graded_edges_increasing_and_symmetric(self):
        # two uniform panels up to the grading threshold; above it, up to the
        # sector switch, edges at 1/x rounded to 4 mantissa bits and 8 times
        # that, mirrored: 5 panels per axis
        for x in (1e-3, 2.0, GRADING_THRESHOLD):
            np.testing.assert_array_equal(_panel_edges(x), [0.0, 0.5, 1.0])
        for x in (1.0001 * GRADING_THRESHOLD, 25.0, 30.0, 41.0, X_SECTOR):
            edges = _panel_edges(x)
            first = edges[1]
            assert first == pytest.approx(1.0 / x, rel=1 / 16)
            assert math.frexp(first)[0] * 16 == round(math.frexp(first)[0] * 16)
            np.testing.assert_array_equal(
                edges, [0.0, first, 8 * first, 1 - 8 * first, 1 - first, 1.0])
            assert np.all(np.diff(edges) > 0.0)
            np.testing.assert_array_equal(edges, 1.0 - edges[::-1])

    def test_right_half_complements_are_the_mirrored_nodes(self):
        # a complement near 0 is the mirrored left-half node itself, not
        # 1 - r rounded to a multiple of eps
        for x in (2.0, 30.0, 41.0):
            nodes, complements, _ = _nodes_and_weights(_panel_edges(x), 24)
            right = nodes > 0.5
            np.testing.assert_array_equal(complements[right], nodes[::-1][right])
            np.testing.assert_array_equal(complements[~right], 1.0 - nodes[~right])
            np.testing.assert_allclose(nodes + complements, 1.0, rtol=0.0, atol=2e-16)
            assert complements.min() == nodes.min()


class TestOracleAgreement:
    def test_closed_forms_reproduced(self):
        # the closed forms and the quadrature share nothing but the
        # propagator, yet agree to machine precision
        for m, om, lam, beta in [(1.0, 1.0, 1.0, 2.0), (0.9, 1.3, 0.4, 2.7), (1.2, 0.7, 2.5, 0.3)]:
            p = ModelParams(m=m, omega=om, lam=lam, beta=beta)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 2) == pytest.approx(closed_correction(p, w, 2), rel=1e-12)
            assert quad_correction(p, w, 3) == pytest.approx(closed_correction(p, w, 3), rel=1e-12)
            assert quad_correction(p, w, 4) == pytest.approx(closed_correction(p, w, 4), rel=1e-10)

    def test_closed_forms_across_the_temperature_range(self):
        # from high temperature through the uniform panels to the graded
        # ones, whichever rung the ladder accepts reproduces the closed forms
        for x in np.geomspace(0.3, 200.0, 12):
            p = point_at(float(x))
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 2) == pytest.approx(closed_correction(p, w, 2), rel=1e-13)
            assert quad_correction(p, w, 3) == pytest.approx(closed_correction(p, w, 3), rel=1e-13)
        for x in (0.3, 2.0, 4.0, 15.0, 40.0):
            p = point_at(x)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 4) == pytest.approx(closed_correction(p, w, 4), rel=1e-13)

    def test_closed_forms_across_the_grading_threshold(self):
        # just below and above the switch from two uniform panels to graded
        # ones, and on both sides of the switch to the sector limit; at
        # 1.0207 * 2**k a layout anchored at powers of two, not at 1/x,
        # accepts order 3 on the 8/16 rung 3e-10 off
        for x in (0.999 * GRADING_THRESHOLD, 1.004 * GRADING_THRESHOLD, 1.0207 * 32,
                  0.999 * X_SECTOR, 1.004 * X_SECTOR, 100.0, 1000.0):
            p = point_at(x)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 2) == pytest.approx(closed_correction(p, w, 2), rel=1e-13)
            assert quad_correction(p, w, 3) == pytest.approx(closed_correction(p, w, 3), rel=1e-13)
        p = point_at(1.004 * GRADING_THRESHOLD)
        w = solve_gap(p).omega_big
        assert p.beta * w > GRADING_THRESHOLD
        assert quad_correction(p, w, 4) == pytest.approx(closed_correction(p, w, 4), rel=1e-13)

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
        for d in builtin_diagrams():
            if d.order != 4:
                continue
            value = quad_diagram(p, w, d)
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

    def test_range_scan(self):
        # the integrand is built from per-gap factors e^{-beta Omega u_k}, so
        # no separation is a difference of positions: orders 2-3 are ok from
        # beta*Omega = 1e-6 to 1e12, at round-off
        for x in np.geomspace(1e-6, 1e12, 50):
            p = point_at(float(x))
            w = solve_gap(p).omega_big
            for order in (2, 3):
                quad = quad_correction(p, w, order)
                assert quad == pytest.approx(closed_correction(p, w, order), rel=5e-14), x
        for x in (0.01, 0.025, 0.05, 0.2, 1.0, 5.0, 20.0, 100.0):
            p = point_at(x)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 4) == pytest.approx(closed_correction(p, w, 4), rel=5e-14)


class TestSectorLimit:
    def test_exact_sector_sums(self):
        # beta Omega -> inf: every diagram's sector sum, and with
        # sign * N / (n! 4**n K_n) the closed forms' asymptotes of R~_n and
        # the zero-temperature coefficient of each fourth-order diagram
        diagrams = builtin_diagrams()
        sums = {d.label: exact_sector_sum(d) for d in diagrams}
        assert sums == {"2": Fraction(1, 2), "3": Fraction(3, 8), "4a": Fraction(5, 16),
                        "4b": Fraction(7, 24), "4c": Fraction(19, 48)}
        weighted = {
            d.label: d.sign * d.symmetry_factor * sums[d.label]
            / (math.factorial(d.order) * 4**d.order * Fraction(_PREFACTORS[d.order][0]))
            for d in diagrams
        }
        assert {label: weighted[label] for label in ZERO_T_COEFF} == ZERO_T_COEFF
        assert {n: sum(v for label, v in weighted.items() if label.startswith(str(n)))
                for n in (2, 3, 4)} == {2: 8, 3: 96, 4: 202496}
        for d in diagrams:
            assert _sector_sum(d) == float(sums[d.label])

    def test_every_order_ok_up_to_beta_omega_1e300(self):
        # m = omega = 1e3 and a tiny coupling keep every point's inputs and
        # corrections in double range while beta*Omega runs to 1e300
        for x in np.geomspace(1.001 * X_SECTOR, 1e300, 50):
            p = ModelParams(m=1e3, omega=1e3, lam=1e-12, beta=float(x) / 1e3)
            w = solve_gap(p).omega_big
            assert p.beta * w > X_SECTOR
            for order in (2, 3, 4):
                assert quad_correction(p, w, order) == pytest.approx(
                    closed_correction(p, w, order), rel=2e-15), (x, order)
        # beta and Omega enter the limit apart, so an overflowing beta*Omega
        # does too
        p = ModelParams(m=1e10, omega=1e10, lam=1e-20, beta=1e300)
        w = solve_gap(p).omega_big
        assert p.beta * w == math.inf
        for order in (2, 3, 4):
            assert quad_correction(p, w, order) == pytest.approx(
                closed_correction(p, w, order), rel=2e-15), order


class TestSymmetries:
    def test_mass_scaling_and_dilation_are_bit_identical(self):
        # x -> x/sqrt(m) maps (m, omega, lambda) onto (1, omega, lambda/m^2), so
        # the twin (m*8, lambda*64) has the same Omega and correction; the
        # dilation (omega/s, lambda/s^3, beta*s) has Omega/s and the correction
        # divided by s.  With s = 2**-7 every input scales exactly, so the bits
        # must agree.  Omega is scaled here, not solved again, so only the
        # quadrature is tested: uniform panels, graded panels at beta*Omega
        # of about 30, and the sector limit at 2e15 and 843.
        s = 2.0**-7
        for m, om, lam, beta in [(1.0, 1.0, 1.0, 0.7), (1.0, 1.0, 1.0, 5.0), (0.3, 2.0, 7.0, 3.0),
                                 (1.0, 1.0, 1.0, 15.0), (1.0, 1.0, 1.0, 1e15),
                                 (1.0, 1.0, 1e80, 1e-24)]:
            p = ModelParams(m=m, omega=om, lam=lam, beta=beta)
            w = solve_gap(p).omega_big
            heavy = replace(p, m=m * 8.0, lam=lam * 64.0)
            dilated = ModelParams(m=m, omega=om / s, lam=lam / s**3, beta=beta * s)
            for order in (2, 3, 4):
                value = quad_correction(p, w, order).hex()
                assert quad_correction(heavy, w, order).hex() == value, (p, order)
                assert (quad_correction(dilated, w / s, order) * s).hex() == value, (p, order)


class TestFailureModes:
    def test_non_convergence_reports_estimate(self, monkeypatch):
        # a tolerance below round-off fails on every rung, so both entry
        # points give up and report the last rung
        monkeypatch.setattr("quartic_vpe.diagrams.REL_TOL", 1e-17)
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=10.0)
        w = solve_gap(p).omega_big
        triangle = next(d for d in builtin_diagrams() if d.label == "3")
        for what, call in (
            ("quadrature for diagram 3", lambda: quad_diagram(p, w, triangle)),
            ("order-3 quadrature", lambda: quad_correction(p, w, 3)),
        ):
            with pytest.raises(ConvergenceError) as err:
                call()
            assert str(err.value) == (
                f"{what} did not stabilize to rel_tol=1e-17 on the 24/32 rung"
            )
            assert err.value.value == pytest.approx(closed_correction(p, w, 3), rel=1e-13)
            assert err.value.bound is not None and err.value.bound > 0.0

    def test_embedded_bound_covers_the_error(self):
        # every rung the ladder rejects carries a full-vs-embedded
        # difference that bounds the distance of its value from the closed
        # form; at beta*Omega = 10 every order rejects the first rung (16
        # nodes, 8 embedded), at 20 orders 3 and 4 reject the 16/24 rung too,
        # and each bound covers its rung's error there
        rejected_at = {(5.0, 2): 1, (5.0, 3): 1, (5.0, 4): 1,
                       (10.0, 2): 1, (10.0, 3): 2, (10.0, 4): 2}
        for beta in (0.5, 2.0, 5.0, 10.0):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=beta)
            w = solve_gap(p).omega_big
            for order in (2, 3, 4):
                chosen = [d for d in builtin_diagrams() if d.order == order]
                # _rungs integrates in units of beta**(n - 1) times the
                # propagator scale 1/(2 m Omega (1 - e^{-beta Omega})) per power
                scale = p.beta ** (order - 1) / (
                    2.0 * p.m * w * -math.expm1(-p.beta * w)) ** (2 * order)
                coeffs = np.array([
                    d.sign * p.lam**order / math.factorial(order) * d.symmetry_factor * scale
                    for d in chosen
                ])
                rejected = []
                for values, bounds in _rungs(p, w, chosen, "reduced"):
                    if np.all(bounds < REL_TOL * np.abs(values)):
                        break
                    rejected.append((coeffs @ values, np.abs(coeffs) @ bounds))
                if beta in (5.0, 10.0):  # beta*Omega = 10 and 20
                    assert len(rejected) == rejected_at[(beta, order)]
                for value, bound in rejected:
                    assert abs(value - closed_correction(p, w, order)) <= bound

    def test_graded_band_bound_covers_the_error(self):
        # across the graded band every rejected rung's |full - embedded|
        # covers its distance from the closed form, and the accepted rung is
        # at round-off; Omega is set so that beta*Omega is each scanned x
        for x in np.geomspace(1.001 * GRADING_THRESHOLD, X_SECTOR, 12):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=float(x) / 2.0)
            w = float(x) / p.beta
            for order in (2, 3, 4):
                chosen = [d for d in builtin_diagrams() if d.order == order]
                scale = p.beta ** (order - 1) / (
                    2.0 * p.m * w * -math.expm1(-p.beta * w)) ** (2 * order)
                coeffs = np.array([
                    d.sign * p.lam**order / math.factorial(order) * d.symmetry_factor * scale
                    for d in chosen
                ])
                closed = closed_correction(p, w, order)
                for values, bounds in _rungs(p, w, chosen, "reduced"):
                    if np.all(bounds < REL_TOL * np.abs(values)):
                        assert coeffs @ values == pytest.approx(closed, rel=5e-15), (x, order)
                        break
                    assert abs(coeffs @ values - closed) <= np.abs(coeffs) @ bounds, (x, order)
                else:
                    pytest.fail(f"no rung passes at beta*Omega = {x}, order {order}")

    def test_every_uniform_point_passes_a_rung(self):
        # the two uniform panels are resolved by some rung of the ladder up
        # to the grading threshold, and the 24/32 rung, where it is reached,
        # with a margin.  Besides gap-solved points, Omega is set so that
        # beta*Omega is x at the ends of the band and where a scan of it
        # found the 8/16 and 16/24 rungs accepting within 0.3 % of REL_TOL
        points = [(p, solve_gap(p).omega_big)
                  for p in map(point_at, (0.2, 2.0, 5.0, 20.0, 0.999 * GRADING_THRESHOLD))]
        for x in (1e-300, 1e-8, 2.566, 3.798, 4.081, 10.86, 18.52, 20.19, 24.0):
            p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=x / 2.0)
            points.append((p, x / p.beta))
        for p, w in points:
            x = p.beta * w
            assert x <= GRADING_THRESHOLD
            for order in (2, 3, 4):
                chosen = [d for d in builtin_diagrams() if d.order == order]
                for rung, (values, bounds) in enumerate(_rungs(p, w, chosen, "reduced")):
                    if LADDER[rung + 1] == LADDER[-1]:
                        assert np.all(bounds < 0.5 * REL_TOL * np.abs(values)), (x, order)
                    if np.all(bounds < REL_TOL * np.abs(values)):
                        break
                else:
                    pytest.fail(f"no rung passes at beta*Omega = {x}, order {order}")

    def test_one_layout_per_point(self, monkeypatch):
        # a tolerance below round-off fails on every rung of a graded point
        # (beta*Omega of about 30); the ladder runs once on its one layout
        # and the point fails with the 24/32 estimate
        monkeypatch.setattr("quartic_vpe.diagrams.REL_TOL", 1e-17)
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=15.0)
        w = solve_gap(p).omega_big
        assert GRADING_THRESHOLD < p.beta * w <= X_SECTOR
        chosen = [d for d in builtin_diagrams() if d.order == 3]
        assert len(list(_rungs(p, w, chosen, "reduced"))) == len(LADDER) - 1
        with pytest.raises(ConvergenceError) as err:
            quad_correction(p, w, 3)
        assert math.isfinite(err.value.value)

    def test_beta_1e20_takes_the_sector_limit(self):
        # at beta*Omega = 2e20 every quadrature node would sit past the decay
        # length; the sector limit needs none
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=1e20)
        w = solve_gap(p).omega_big
        for order in (2, 3, 4):
            assert quad_correction(p, w, order) == pytest.approx(
                closed_correction(p, w, order), rel=2e-15)

    def test_argument_validation(self):
        p = ModelParams(m=1.0, omega=1.0, lam=1.0, beta=2.0)
        ring = next(d for d in builtin_diagrams() if d.label == "4a")
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                quad_diagram(p, bad, ring)
        with pytest.raises(ValidationError):
            quad_diagram(p, 2.0, ring, mode="sideways")
        with pytest.raises(ValidationError):
            quad_correction(p, 2.0, 5)
