"""Diagram validation and diagram-oracle consistency checks."""

import ast
import math
import time
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quartic_vpe.core import ModelParams
from quartic_vpe.diagrams import (
    X_SECTOR,
    DiagramSpec,
    _gap_terms,
    _sector_sum,
    _simplex_integral,
    _slot_orderings,
    builtin_diagrams,
    quad_correction,
    quad_diagram,
)
from quartic_vpe.errors import ValidationError
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
    the simplex integrals.
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


def decimal_simplex_integral(nodes, x):
    """The integral of e^{-x sum_k c_k u_k} over the unit simplex, at 40
    digits: e^{-top} sum_m h_m(top - s) / (m + width)! at s = x c, h_m the
    complete symmetric polynomial.  Every term is positive, and the series
    is summed whatever the span, without a difference of neighbours."""
    with localcontext() as ctx:
        ctx.prec = 40
        s = [Decimal(x) * int(c) for c in nodes]
        d = [s[-1] - v for v in s[:-1]]
        width = len(d)
        h = [Decimal(1)] * width  # h_m of d[:k + 1], here at m = 0
        factorial = Decimal(math.factorial(width))
        term = total = 1 / factorial
        m = 0
        while m <= d[0] or term > total * Decimal("1e-40"):
            m += 1
            factorial *= m + width
            below = Decimal(0)
            for k in range(width):
                h[k] = below + d[k] * h[k]
                below = h[k]
            term = h[-1] / factorial
            total += term
        return (-s[-1]).exp() * total


def imported_names(path):
    """Every module a source file imports, and every name it imports from
    one, dotted and without leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names.add(base)
            names.update(f"{base}.{alias.name}".lstrip(".") for alias in node.names)
    return names


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

    def test_terms_expand_every_edge(self):
        # each ordering's integrand is 2**(sum of powers) = 4**n at
        # beta*Omega = 0, so the weights of all rows sum to that times the
        # number of orderings
        for d in builtin_diagrams():
            for mode, orderings in (("reduced", math.factorial(d.order - 1)),
                                    ("full", math.factorial(d.order))):
                terms = _gap_terms(d, mode)
                assert list(terms) == sorted(terms)
                assert sum(weight for _, weight in terms) == orderings * 4**d.order
                assert {len(nodes) for nodes, _ in terms} == {d.order + (mode == "full")}
                assert all(list(nodes) == sorted(nodes) for nodes, _ in terms)


class TestSimplexIntegrals:
    def test_against_a_40_digit_series(self):
        # every reduced row of every diagram, from the smallest beta*Omega to
        # just below the sector limit, weighted as the oracle sums them
        start = time.perf_counter()
        for x in (1e-300, 1e-8, 1.0, 2.566, 9.0, 18.52, 41.9):
            for d in builtin_diagrams():
                terms = _gap_terms(d, "reduced")
                value = math.fsum(w * _simplex_integral([x * c for c in nodes])
                                  for nodes, w in terms)
                reference = sum(w * decimal_simplex_integral(nodes, x) for nodes, w in terms)
                assert value == pytest.approx(float(reference), rel=2e-15), (x, d.label)
        assert time.perf_counter() - start < 1.0


class TestIndependence:
    def test_oracles_import_nothing_from_series(self):
        # the oracles check the closed forms, so neither may share their code
        src = Path(__file__).parents[1] / "src" / "quartic_vpe"
        for module in ("diagrams.py", "spectrum.py"):
            names = imported_names(src / module)
            assert not [name for name in names if "series" in name.split(".")], module

    def test_only_the_eigensolver_imports_numpy(self):
        # the series path, the diagram oracle and the run drivers are pure
        # Python; numpy serves the eigensolver alone
        src = Path(__file__).parents[1] / "src" / "quartic_vpe"
        importers = sorted(path.name for path in src.glob("*.py")
                           if any(name.split(".")[0] == "numpy"
                                  for name in imported_names(path)))
        assert importers == ["spectrum.py"]


class TestOracleAgreement:
    def test_closed_forms_reproduced(self):
        # the closed forms and the simplex integrals share nothing but the
        # propagator, yet agree to machine precision
        for m, om, lam, beta in [(1.0, 1.0, 1.0, 2.0), (0.9, 1.3, 0.4, 2.7), (1.2, 0.7, 2.5, 0.3)]:
            p = ModelParams(m=m, omega=om, lam=lam, beta=beta)
            w = solve_gap(p).omega_big
            for order in (2, 3, 4):
                assert quad_correction(p, w, order) == pytest.approx(
                    closed_correction(p, w, order), rel=4e-15)

    def test_closed_forms_across_the_temperature_range(self):
        # from high temperature to the sector limit
        for x in np.geomspace(0.3, 200.0, 12):
            p = point_at(float(x))
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 2) == pytest.approx(closed_correction(p, w, 2), rel=4e-15)
            assert quad_correction(p, w, 3) == pytest.approx(closed_correction(p, w, 3), rel=4e-15)
        for x in (0.3, 2.0, 4.0, 15.0, 40.0):
            p = point_at(x)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 4) == pytest.approx(closed_correction(p, w, 4), rel=4e-15)

    def test_closed_forms_across_the_oracle_switches(self):
        # an entry of Newton's table whose nodes differ by the integer d
        # switches from the series to the difference of its neighbours at
        # beta*Omega = 1/d (the built-in diagrams' d are 2, 4, 6 and 8); each
        # diagram switches to its sector limit at X_SECTOR
        for x in (0.1249, 0.1251, 0.16666, 0.16668, 0.2499, 0.2501,
                  0.4999, 0.5001, 0.9999, 1.0001,
                  0.999 * X_SECTOR, 1.004 * X_SECTOR, 100.0, 1000.0):
            p = point_at(x)
            w = solve_gap(p).omega_big
            assert p.beta * w == pytest.approx(x, rel=1e-12)
            for order in (2, 3, 4):
                assert quad_correction(p, w, order) == pytest.approx(
                    closed_correction(p, w, order), rel=4e-15), (x, order)

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
            assert full == pytest.approx(reduced, rel=2e-15)

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
                assert quad == pytest.approx(closed_correction(p, w, order), rel=4e-15), x
        for x in (0.01, 0.025, 0.05, 0.2, 1.0, 5.0, 20.0, 100.0):
            p = point_at(x)
            w = solve_gap(p).omega_big
            assert quad_correction(p, w, 4) == pytest.approx(closed_correction(p, w, 4), rel=4e-15)


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

    def test_sector_sum_is_computed_once_per_diagram(self):
        # the sum over orderings is cached, as the gap terms are: a second
        # call is a cache hit with the same float
        d = next(d for d in builtin_diagrams() if d.label == "4c")
        _sector_sum.cache_clear()
        first = _sector_sum(d)
        second = _sector_sum(d)
        info = _sector_sum.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert second.hex() == first.hex()

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
        # oracle is tested: simplex integrals at beta*Omega up to about 30,
        # and the sector limit at 2e15 and 843.
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
    def test_beta_1e20_takes_the_sector_limit(self):
        # at beta*Omega = 2e20 every term but the sector limit's is below
        # double range
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
