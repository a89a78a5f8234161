"""Exact integration of connected vacuum diagrams: the series oracle.

Each correction order is a signed combination of imaginary-time
integrals of products of trial-oscillator propagators over the thermal
circle.  This module evaluates those integrals from nothing but the
propagator, the diagram topology, and its symmetry factor, so the result
is an independent check on the closed forms in ``series``.

One time is eliminated by translation invariance on the circle; the
remaining ``n - 1`` times are ordered, which splits the domain into
simplices in the gaps between neighbouring times.  Orderings with the
same integrand -- an ordering and its mirror under tau -> beta - tau, or
orderings with identical edge lists -- are integrated once and weighted
by their multiplicity.  In units of its scale
1/(2 m Omega (1 - e^{-beta Omega})) the propagator is a sum of two
exponentials of the gaps, so each integrand is a finite sum of terms
w e^{-beta Omega sum_k c_k u_k} with integer nodes c_k and positive
integer weights w (``_gap_terms``).  Each term integrates exactly over
the simplex to a divided difference of the exponential (Hermite-Genocchi;
de Boor, Surveys in Approximation Theory 1 (2005) 46), evaluated to about
machine precision (McCurdy, Ng and Parlett, Math. Comp. 43 (1984) 501; see
``_simplex_integrals``).  The scale's powers, beta**(n - 1) and
lambda**n join the prefactor as a mantissa and a binary exponent.
Beyond ``X_SECTOR`` = 42 each integral is its sector limit (Hepp,
Commun. Math. Phys. 2 (1966) 301; Binoth and Heinrich, Nucl. Phys. B 585
(2000) 741; see ``_sector_sum``).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, check_frequency
from .errors import ValidationError

__all__ = [
    "DiagramSpec",
    "builtin_diagrams",
    "quad_correction",
    "quad_diagram",
]


@dataclass(frozen=True)
class DiagramSpec:
    """A connected vacuum diagram of the quartic theory.

    ``edges`` lists undirected edges ``(i, j, power)`` meaning the
    propagator between vertices ``i`` and ``j`` raised to ``power``.
    Every vertex must have total degree four (quartic vertex), no edge
    may start and end on the same vertex (tadpole insertions cancel
    against the variational counterterm), and the graph must be
    connected (disconnected pieces belong to lower orders of ln Z).
    """

    order: int
    edges: tuple[tuple[int, int, int], ...]
    symmetry_factor: int
    label: str
    note: str = ""

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValidationError(f"diagram order must be >= 2, got {self.order}")
        if self.symmetry_factor <= 0:
            raise ValidationError(
                f"symmetry factor must be positive, got {self.symmetry_factor}"
            )
        degree = [0] * self.order
        adjacency: dict[int, set[int]] = {v: set() for v in range(self.order)}
        for i, j, power in self.edges:
            if not (0 <= i < self.order and 0 <= j < self.order):
                raise ValidationError(f"edge ({i}, {j}) references a missing vertex")
            if i == j:
                raise ValidationError(f"self-loop on vertex {i} is not allowed")
            if power < 1:
                raise ValidationError(f"edge power must be >= 1, got {power}")
            degree[i] += power
            degree[j] += power
            adjacency[i].add(j)
            adjacency[j].add(i)
        for v, deg in enumerate(degree):
            if deg != 4:
                raise ValidationError(
                    f"vertex {v} has degree {deg}; every quartic vertex needs 4"
                )
        seen = {0}
        queue = [0]
        while queue:
            for nb in adjacency[queue.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        if len(seen) != self.order:
            raise ValidationError("diagram must be connected")

    @property
    def sign(self) -> int:
        """Overall sign (-1)^(n+1) of the order-n contribution."""
        return -1 if self.order % 2 == 0 else 1


def builtin_diagrams() -> list[DiagramSpec]:
    """The five connected diagrams through fourth order.

    Symmetry factors follow from the standard vertex-pairing counts:
    with ``C(4, k)`` ways to pick legs at a quartic vertex,

    * second order: 4! pairings of one quadruple edge,
    * third order (triangle): (3!/(3*2)) * (2*C(4,2))^3,
    * fourth order ring: (4!/(4*2)) * (2*C(4,2))^4,
    * fourth order double-ladder: (4!/(4*2)) * (C(4,2)*2*C(4,2))^2 * 2^4,
    * fourth order triple-band: (4!/(4*2)) * (C(4,3)*3!*C(4,3))^2 * 2.
    """
    c42 = math.comb(4, 2)
    c43 = math.comb(4, 3)
    return [
        DiagramSpec(
            order=2,
            edges=((0, 1, 4),),
            symmetry_factor=math.factorial(4),
            label="2",
        ),
        DiagramSpec(
            order=3,
            edges=((0, 1, 2), (1, 2, 2), (2, 0, 2)),
            symmetry_factor=(math.factorial(3) // (3 * 2)) * (2 * c42) ** 3,
            label="3",
        ),
        DiagramSpec(
            order=4,
            edges=((0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2)),
            symmetry_factor=(math.factorial(4) // (4 * 2)) * (2 * c42) ** 4,
            label="4a",
        ),
        DiagramSpec(
            order=4,
            edges=((0, 1, 2), (2, 3, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)),
            symmetry_factor=(math.factorial(4) // (4 * 2)) * (c42 * 2 * c42) ** 2 * 2**4,
            label="4b",
            note=(
                "edge powers are the unique degree-consistent assignment for "
                "this topology: two double bonds bridged by four single bonds; "
                "power lists sometimes quoted for it violate the degree-4 rule"
            ),
        ),
        DiagramSpec(
            order=4,
            edges=((0, 1, 3), (2, 3, 3), (1, 2, 1), (3, 0, 1)),
            symmetry_factor=(math.factorial(4) // (4 * 2)) * (c43 * math.factorial(3) * c43) ** 2 * 2,
            label="4c",
        ),
    ]


# Beyond this beta*Omega each diagram takes its sector limit.  The dropped
# terms are at most (2.8 x + 22) e^{-x} of it at x = beta*Omega (diagram 4c,
# the largest), 8.0e-17 < 2**-53 at x = 42 and 2.1e-16 at 41.
X_SECTOR = 42.0
# Terms of the series for a divided difference whose nodes span at most 1:
# the tail after them is below 1/20! < 2**-61 of the sum.
SERIES_TERMS = 20


Ordering = tuple[tuple[tuple[int, int], int], ...]


def _slot_orderings(diagram: DiagramSpec, mode: str) -> list[tuple[int, Ordering]]:
    """Time orderings with equal integrands, as (multiplicity, edge list).

    Each edge list is written in terms of ordered slots.  Slot 0 is the
    anchor at time zero: in reduced mode the anchor is the vertex
    eliminated by translation invariance; in full mode it is the earliest
    of the n integrated times.

    Orderings whose edge multisets coincide have the same integrand.  In
    reduced mode the reflection tau -> beta - tau maps slot k to slot
    (n - k) mod n; it maps the simplex onto itself with unit Jacobian and
    G(s) = G(beta - s), so an ordering and its mirror integrate to the
    same value and share a class keyed by the smaller of the two edge
    multisets.  Full mode stays the unpaired cross-check of this: only
    identical edge lists merge there.
    """
    n = diagram.order
    reduced = mode == "reduced"
    first = 1 if reduced else 0  # slot of the first permuted vertex

    def edge_list(slot_of: dict[int, int]) -> Ordering:
        return tuple(sorted(
            (tuple(sorted((slot_of[i], slot_of[j]))), power)
            for i, j, power in diagram.edges
        ))

    multiplicity: dict[Ordering, int] = {}
    for perm in itertools.permutations(range(n - first)):
        slot_of = {n - 1: 0} if reduced else {}
        for k, vertex in enumerate(perm):
            slot_of[vertex] = first + k
        key = edge_list(slot_of)
        if reduced:
            key = min(key, edge_list({v: (n - k) % n for v, k in slot_of.items()}))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    return [(count, key) for key, count in multiplicity.items()]


def _sector_sum(diagram: DiagramSpec) -> float:
    """(beta Omega)**(n - 1) times the reduced simplex integral as beta*Omega
    -> inf, rounded once from the exact sum over orderings and long gap j of
    prod_(k != j) 1/cov_k(j).  Gap k runs from slot k to k + 1; cov_k(j) >= 1
    (the diagram is connected) sums the powers of the edges (slots a < b)
    with exactly one of j and k in [a, b), whose arc avoiding j covers k."""
    n = diagram.order
    num, den = 0, 1
    for count, edge_slots in _slot_orderings(diagram, "reduced"):
        for j in range(n):
            cover = math.prod(
                sum(power for (a, b), power in edge_slots if (a <= k < b) != (a <= j < b))
                for k in range(n) if k != j)
            num, den = num * cover + count * den, den * cover
    return num / den


@functools.cache
def _gap_terms(diagram: DiagramSpec, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """The integrand as rows of ascending integer nodes c and weights w.

    Gap k runs from slot k to slot k + 1 (the closing gap n - 1 back to the
    anchor), in units of beta.  In units of its scale the propagator between
    slots a < b is e^{-x A} + e^{-x B} at x = beta*Omega, where A sums the
    gaps a .. b - 1 and B the rest of the circle, so the integrand of each
    ordering class is a sum of terms w e^{-x sum_k c_k u_k}: an edge raised
    to p puts j copies on one arc and p - j on the other, weighted by
    C(p, j).  Full mode weights each point by the closing gap, which is the
    same as integrating over one more gap with the closing gap's node.  The
    integral over the simplex does not depend on the order of the nodes, so
    rows with the same sorted nodes merge.
    """
    n = diagram.order
    rows: Counter[tuple[int, ...]] = Counter()
    for count, edge_slots in _slot_orderings(diagram, mode):
        terms = Counter({(0,) * n: count})
        for (a, b), power in edge_slots:
            expanded: Counter[tuple[int, ...]] = Counter()
            for nodes, weight in terms.items():
                for j in range(power + 1):
                    key = tuple(c + (j if a <= k < b else power - j)
                                for k, c in enumerate(nodes))
                    expanded[key] += weight * math.comb(power, j)
            terms = expanded
        for nodes, weight in terms.items():
            rows[tuple(sorted(nodes + nodes[-1:] if mode == "full" else nodes))] += weight
    keys = sorted(rows)
    return np.array(keys, dtype=float), np.array([rows[k] for k in keys], dtype=float)


def _simplex_integrals(s: np.ndarray) -> np.ndarray:
    """Integral of e^{-sum_k s_k u_k} over the unit simplex, per row of
    ascending nodes s (the last u_k is one minus the others).

    By Hermite-Genocchi it is the divided difference of e^{-t} at the nodes,
    sign (-1)**width removed.  Newton's table builds it from entries over
    ever more neighbouring nodes.  An entry whose nodes span at most 1 is
    e^{-top} sum_m h_m(top - s) / (m + width)!, with h_m the complete
    symmetric polynomial: every term is positive, and the m-th is at most
    1/(width! m!).  A wider entry is the difference of its two neighbours
    over the span (McCurdy, Ng and Parlett 1984): a span above 1 keeps the
    two neighbours apart, so their difference loses few digits.
    """
    table = np.exp(-s)
    for width in range(1, s.shape[1]):
        top = s[:, width:]
        span = top - s[:, :-width]
        h = [np.ones_like(top)] + [np.zeros_like(top)] * (SERIES_TERMS - 1)
        for k in range(width):  # the top node adds nothing to h
            d = top - s[:, k:k + top.shape[1]]
            for m in range(1, SERIES_TERMS):
                h[m] = h[m] + d * h[m - 1]
        series = sum(h_m / math.factorial(m + width) for m, h_m in enumerate(h))
        table = np.where(span <= 1.0, np.exp(-top) * series,
                         (table[:, :-1] - table[:, 1:]) / np.maximum(span, 1.0))
    return table[:, 0]


def _diagram_sum(params: ModelParams, omega_big: float, diagrams: list[DiagramSpec],
                 coeffs: np.ndarray, exponent: int, mode: str) -> float:
    """Sum of ``coeffs`` times the diagrams' simplex integrals, in units of
    beta**(n - 1) (2 m Omega (1 - e^{-beta Omega}))**(-2n), times
    2**exponent.

    Above ``X_SECTOR`` each integral is its sector limit; beta and Omega
    enter through ``math.frexp``, so beta*Omega may overflow.  Below it each
    integral is the weighted sum of its terms' exact simplex integrals.
    """
    if params.beta * omega_big > X_SECTOR:
        sums = np.array([_sector_sum(d) for d in diagrams])
        (beta, e_beta), (om, e_om) = math.frexp(params.beta), math.frexp(omega_big)
        n = diagrams[0].order
        return math.ldexp(float(np.sum(coeffs * sums)) / (beta * om) ** (n - 1),
                          exponent - (n - 1) * (e_beta + e_om))
    x = params.beta * omega_big
    values = []
    for diagram in diagrams:
        nodes, weights = _gap_terms(diagram, mode)
        values.append(weights @ _simplex_integrals(x * nodes))
    return math.ldexp(float(np.sum(coeffs * values)), exponent)


def _scale(params: ModelParams, omega_big: float, n: int) -> tuple[float, int]:
    """lam**n beta**(n - 1) / (2 m Omega (1 - e^{-beta Omega}))**(2n), the
    powers that ``_diagram_sum`` leaves out, as (mantissa, binary
    exponent): every factor enters through ``math.frexp``, so no power
    leaves double range."""
    check_frequency(omega_big)
    lam, e_lam = math.frexp(params.lam)
    beta, e_beta = math.frexp(params.beta)
    m, e_m = math.frexp(params.m)
    om, e_om = math.frexp(omega_big)
    d, e_d = math.frexp(-math.expm1(-params.beta * omega_big))
    mantissa = lam**n * beta ** (n - 1) / (2.0 * m * om * d) ** (2 * n)
    return mantissa, n * e_lam + (n - 1) * e_beta - 2 * n * (e_m + e_om + e_d)


def quad_diagram(
    params: ModelParams,
    omega_big: float,
    diagram: DiagramSpec,
    mode: str = "reduced",
) -> float:
    """Contribution of one diagram to the free energy, integrated exactly.

    Returns sign * (lambda^n / n!) * N * integral, the quantity the closed
    forms of ``series`` decompose; the diagrams of one order sum to the
    correction.  ``mode="full"`` integrates all n times (with the 1/beta
    bookkeeping factor) instead of using translation invariance; the two
    modes agreeing checks the circle geometry.  Above ``X_SECTOR`` both
    modes return the sector limit.
    """
    if mode not in ("reduced", "full"):
        raise ValidationError(f"mode must be 'reduced' or 'full', got {mode}")
    n = diagram.order
    scale, exponent = _scale(params, omega_big, n)
    prefactor = diagram.sign * scale / math.factorial(n) * diagram.symmetry_factor
    return _diagram_sum(params, omega_big, [diagram], np.array([prefactor]), exponent, mode)


def quad_correction(params: ModelParams, omega_big: float, order: int) -> float:
    """Sum of all built-in diagrams of one order (the oracle for c_n)."""
    chosen = [d for d in builtin_diagrams() if d.order == order]
    if not chosen:
        raise ValidationError(f"no built-in diagrams of order {order}")
    scale, exponent = _scale(params, omega_big, order)
    base = chosen[0].sign * scale / math.factorial(order)
    coeffs = base * np.array([d.symmetry_factor for d in chosen])
    return _diagram_sum(params, omega_big, chosen, coeffs, exponent, "reduced")
