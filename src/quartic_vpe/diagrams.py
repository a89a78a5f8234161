"""Direct quadrature of connected vacuum diagrams: the series oracle.

Each correction order is a signed combination of imaginary-time
integrals of products of trial-oscillator propagators over the thermal
circle.  This module evaluates those integrals numerically from nothing
but the propagator, the diagram topology, and its symmetry factor, so
the result is an independent check on the closed forms in ``series``.

The integration strategy: one time is eliminated by translation
invariance on the circle; the remaining ``n - 1`` times are ordered,
which splits the domain into simplices where every propagator argument
is a plain difference (no kinks inside a panel).  Orderings with the
same integrand -- an ordering and its mirror under tau -> beta - tau,
or orderings with identical edge lists -- are integrated once and
weighted by their multiplicity.  Each simplex is mapped to the unit
cube by stick-breaking and integrated with a panel-based Gauss-Legendre
rule.  The propagator is built there from per-gap factors, in units of
its scale 1/(2 m Omega (1 - e^{-beta Omega})), so the integrand is O(1)
at every beta*Omega; the scale's powers, beta**(n - 1) and lambda**n join
the prefactor as a mantissa and a binary exponent.  The rule is chosen
by an embedded error estimate, as in QUADPACK (Piessens et al., 1983;
Trefethen, *Approximation Theory and Approximation Practice*, ch. 19):
each point runs a nested ladder of 8, 16, 24 and then 32 nodes per panel
once, each rule the embedded error rule of the next, and accepts the
first rung where the two agree to the tolerance.  Each axis has two
uniform panels up to beta*Omega = 24, and five graded toward both ends up
to ``X_SECTOR`` = 42.  Beyond that each integral is its sector limit
(Hepp, Commun. Math. Phys. 2 (1966) 301; Binoth and Heinrich, Nucl.
Phys. B 585 (2000) 741; see ``_sector_sum``).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from operator import mul

import numpy as np

from .core import ModelParams, check_frequency
from .errors import ConvergenceError, ValidationError

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


# Relative agreement of a rung with its embedded rule.
REL_TOL = 1e-9
# Gauss-Legendre nodes per panel; each rule is the embedded rule of the next.
# Even steps keep the cost of a point close to a smooth function of
# beta*Omega.  On the two uniform panels order 4 ends the ladder on the 8/16
# rung up to beta*Omega of about 2, on 16/24 up to about 10 and on 24/32 up
# to the grading threshold (orders 2 and 3 on 8/16 up to about 3, on 24/32
# only above about 20), so every uniform point passes on its layout.  A scan
# of the built-in diagrams (3,400 points from 1e-8 to 42 at orders 2 and 3,
# 660 at order 4, 20 more below 1e-8 each) finds none that fails: 24/32
# passes at <= 0.22 REL_TOL, every graded point (24, 42] ends on 16/24 at
# <= 2.2e-11, and points below 1e-8 end on 8/16 at <= 6.7e-16.
LADDER = (8, 16, 24, 32)
PANELS_PER_DIM = 2
# Width ratio of neighbouring graded panels.  On order 4 at beta*Omega = 24-40
# (edges continued to 1/2) ratio 8 costs 0.35-0.67x what 2, 4 and 16 cost.
GRADING_RATIO = 8
# Beyond this beta*Omega the panels are graded toward both axis ends.  The
# two uniform panels pass up to about 25.5 (order 4's estimate is 2e-10 at
# 24 and 7e-10 at 25.5); beyond that order 4 fails on them.
GRADING_THRESHOLD = 24.0
# Beyond this beta*Omega each diagram takes its sector limit.  The dropped
# terms are at most (2.8 x + 22) e^{-x} of it at x = beta*Omega (diagram 4c,
# the largest), 8.0e-17 < 2**-53 at x = 42 and 2.1e-16 at 41.
X_SECTOR = 42.0
# axis-0 nodes evaluated per product-grid chunk (bounds the working memory)
CHUNK_NODES = 16


def _panel_edges(x: float) -> np.ndarray:
    """Panel boundaries in r-space [0, 1] for beta*Omega = ``x`` <= ``X_SECTOR``.

    Beyond the grading threshold five panels resolve the decay length 1/x
    (in units of the axis) at both ends: edges at 1/x and ``GRADING_RATIO``
    times that, mirrored about 1/2.  Anchored at a power of two instead of
    1/x, the panel from about 4 to 32 decay lengths leaves the 16-node rule
    3e-10 off, and the 8/16 rung accepts that wherever the 8-node error
    crosses it.  The first edge keeps 4 mantissa bits, so every edge and its
    mirror are exact; unrounded edges triple the round-off error.
    """
    if x <= GRADING_THRESHOLD:
        return np.linspace(0.0, 1.0, PANELS_PER_DIM + 1)
    mantissa, exponent = math.frexp(1.0 / x)
    edge = math.ldexp(round(mantissa * 16) / 16, exponent)
    left = [0.0, edge, GRADING_RATIO * edge]
    return np.array(left + [1.0 - e for e in reversed(left)])


def _nodes_and_weights(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, ...]:
    """Nodes r, their complements 1 - r and weights on the panels ``edges``.

    The layout mirrors about 1/2 node by node, so a right-half node takes its
    complement exactly from the mirrored left-half node: a gap near the end
    of an axis keeps its relative precision however small it is.
    """
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + half[:, None] * gauss_t[None, :]).ravel()
    weights = (half[:, None] * gauss_w[None, :]).ravel()
    return nodes, np.where(nodes > 0.5, nodes[::-1], 1.0 - nodes), weights


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


def _integrate_level(
    per_diagram: list[list[tuple[int, Ordering]]],
    dim: int,
    x: float,
    nodes: np.ndarray,
    complements: np.ndarray,
    weights: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Simplex integrals for same-order diagrams on one product grid, in
    units of beta**(n - 1) (2 m Omega (1 - e^{-x}))**(-2n), x = beta*Omega.

    Stick-breaking gives the gap u_k from slot k to slot k + 1 and the
    stick v_k left after slot k, both in units of beta; v_k is a product of
    complements, so the gaps from slot k on, closing gap included, sum to
    it exactly.  In these units the propagator between slots a < b is
    E_a...E_{b-1} + E_0...E_{a-1} e^{-x v_b} with E_k = e^{-x u_k}: it lies
    in (0, 2] and depends on the first b axes only.
    """
    needed_pairs = {
        pair for classes in per_diagram for _, edge_slots in classes for pair, _ in edge_slots
    }

    totals = np.zeros(len(per_diagram))
    chunk = CHUNK_NODES if dim > 1 else nodes.size
    for start in range(0, nodes.size, chunk):
        measure: np.ndarray | float = 1.0
        remaining: np.ndarray | float = 1.0
        gaps = []  # E_k
        tails = []  # e^{-x v_{k+1}}
        for axis in range(dim):
            shape = [1] * dim
            shape[axis] = -1
            part = slice(start, start + chunk) if axis == 0 else slice(None)
            r_ax, c_ax, w_ax = (a[part].reshape(shape) for a in (nodes, complements, weights))
            measure = measure * w_ax * remaining
            gaps.append(np.exp(-x * (remaining * r_ax)))
            remaining = remaining * c_ax
            tails.append(np.exp(-x * remaining))
        if mode == "full":
            measure = measure * remaining
        powered = {}
        for a, b in needed_pairs:
            outside = tails[b - 1] if a == 0 else tails[b - 1] * reduce(mul, gaps[:a])
            powered[(a, b), 1] = reduce(mul, gaps[a:b]) + outside
        for index, classes in enumerate(per_diagram):
            for count, edge_slots in classes:
                product: np.ndarray | None = None
                for pair, power in edge_slots:
                    factor = powered.get((pair, power))
                    if factor is None:
                        factor = powered[(pair, power)] = powered[(pair, 1)] ** power
                    product = factor if product is None else product * factor
                totals[index] += count * float(np.sum(measure * product))
    return totals


def _rungs(
    params: ModelParams,
    omega_big: float,
    diagrams: list[DiagramSpec],
    mode: str,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(values, |values - embedded|) of each rung of ``LADDER`` on the
    panel layout of ``_panel_edges``."""
    per_diagram = [_slot_orderings(d, mode) for d in diagrams]
    dim = diagrams[0].order - 1
    x = params.beta * omega_big
    edges = _panel_edges(x)
    embedded = None
    for nodes_per_panel in LADDER:
        values = _integrate_level(
            per_diagram, dim, x, *_nodes_and_weights(edges, nodes_per_panel), mode,
        )
        if embedded is not None:
            yield values, np.abs(values - embedded)
        embedded = values


def _refined_integrals(params: ModelParams, omega_big: float, diagrams: list[DiagramSpec],
                       coeffs: np.ndarray, exponent: int, mode: str, what: str) -> float:
    """Sum of ``coeffs`` times the diagrams' scaled simplex integrals, times
    2**exponent.

    Above ``X_SECTOR`` each integral is its sector limit; beta and Omega
    enter through ``math.frexp``, so beta*Omega may overflow.  Below it,
    accepts the first rung of ``_rungs`` where every diagram's
    |full - embedded| is below ``REL_TOL`` times |full|; else raises
    ConvergenceError with the last rung's value and bound
    sum(|coeffs| * |full - embedded|).  The run drivers do not catch it,
    so such a quadrature stops the command; a library caller gets the
    value and bound.  Once the embedded rule resolves the
    integrand, the difference over-estimates the error of the value
    returned; an embedded rule of one or two nodes on panels wider than
    the decay length 1/(beta Omega) could agree with the full rule by
    accident, so the ladder starts at 8.  Order 4 costs 3 ms at
    beta*Omega <= 2, 11 ms at 3-10, 28 ms at 12-24 and 0.19-0.33 s at 24-42,
    a sector limit 0.3 ms (one BLAS thread, 2-core VM).
    """
    if params.beta * omega_big > X_SECTOR:
        sums = np.array([_sector_sum(d) for d in diagrams])
        (beta, e_beta), (om, e_om) = math.frexp(params.beta), math.frexp(omega_big)
        n = diagrams[0].order
        return math.ldexp(float(np.sum(coeffs * sums)) / (beta * om) ** (n - 1),
                          exponent - (n - 1) * (e_beta + e_om))
    for values, bounds in _rungs(params, omega_big, diagrams, mode):
        if np.all(bounds < REL_TOL * np.abs(values)):
            return math.ldexp(float(np.sum(coeffs * values)), exponent)
    raise ConvergenceError(
        f"{what} did not stabilize to rel_tol={REL_TOL} "
        f"on the {LADDER[-2]}/{LADDER[-1]} rung",
        value=math.ldexp(float(np.sum(coeffs * values)), exponent),
        bound=math.ldexp(float(np.sum(np.abs(coeffs) * bounds)), exponent),
    )


def _scale(params: ModelParams, omega_big: float, n: int) -> tuple[float, int]:
    """lam**n beta**(n - 1) / (2 m Omega (1 - e^{-beta Omega}))**(2n), the
    powers that ``_integrate_level`` leaves out, as (mantissa, binary
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
    """Contribution of one diagram to the free energy, by quadrature.

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
    return _refined_integrals(params, omega_big, [diagram], np.array([prefactor]),
                              exponent, mode, f"quadrature for diagram {diagram.label}")


def quad_correction(params: ModelParams, omega_big: float, order: int) -> float:
    """Sum of all built-in diagrams of one order (the oracle for c_n).

    Same-order diagrams share one quadrature grid and one set of
    propagator evaluations per rung.
    """
    chosen = [d for d in builtin_diagrams() if d.order == order]
    if not chosen:
        raise ValidationError(f"no built-in diagrams of order {order}")
    scale, exponent = _scale(params, omega_big, order)
    base = chosen[0].sign * scale / math.factorial(order)
    coeffs = base * np.array([d.symmetry_factor for d in chosen])
    return _refined_integrals(params, omega_big, chosen, coeffs, exponent,
                              "reduced", f"order-{order} quadrature")
