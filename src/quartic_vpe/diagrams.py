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
rule.  The rule is chosen by an embedded error estimate, as in QUADPACK
(Piessens et al., 1983; Trefethen, *Approximation Theory and
Approximation Practice*, ch. 19): each point runs a nested ladder of 8,
16, 24 and then 32 nodes per panel once, on the one panel layout its
beta*Omega selects, each rung's rule being the embedded error rule of the
next.  The first rung where the two agree to the tolerance is accepted; if
the 24/32 rung fails too, the point does not converge.  At high and
moderate temperature each axis is split into two uniform panels.  At low
temperature the propagator localizes the integrand near the corners, so
the panels are graded geometrically toward both ends of every axis, each
panel about 8 times as wide as its neighbour nearer the axis end.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Propagator
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
# only above about 20), so every uniform point passes on its layout.  The
# graded panels end on 16/24 at every order and every beta*Omega scanned
# from 24.1 to 8000.
LADDER = (8, 16, 24, 32)
PANELS_PER_DIM = 2
# Width ratio of neighbouring graded panels.  Measured on order 4 at
# beta*Omega = 40, 400 and 1600 against ratio 2: ratio 4 costs 0.6-1.0x,
# ratio 8 0.2-0.3x, and ratio 16 1.2-3x what ratio 8 costs.
GRADING_RATIO = 8
# Beyond this beta*Omega the panels are graded toward both axis ends.  The
# two uniform panels pass up to about 25.5 (order 4's estimate is 2e-10 at
# 24 and 7e-10 at 25.5); beyond that order 4 fails on them.
GRADING_THRESHOLD = 24.0
# axis-0 nodes evaluated per product-grid chunk (bounds the working memory)
CHUNK_NODES = 16


def _panel_edges(x: float) -> np.ndarray:
    """Panel boundaries in r-space [0, 1] for beta*Omega = ``x``.

    Beyond the grading threshold the propagator decay length 1/x (in
    units of the axis) is resolved with geometrically shrinking panels
    at both ends of the axis: edges at 1/x and every ``GRADING_RATIO``
    times that below 1/2, plus 1/2 itself where the centre panel would
    span more than that ratio, mirrored about 1/2.  The edges sit at fixed
    multiples of the decay length: anchored at a power of two instead,
    the panel from about 4 to 32 decay lengths leaves the 16-node rule
    3e-10 off, and the 8/16 rung accepts that wherever the 8-node error
    crosses it.  The first edge keeps 4 mantissa bits, so every edge and
    its mirror are exact; unrounded edges triple the round-off error.
    """
    if x <= GRADING_THRESHOLD:
        return np.linspace(0.0, 1.0, PANELS_PER_DIM + 1)
    mantissa, exponent = math.frexp(max(1.0 / x, 2.0 ** -42))
    edge = math.ldexp(round(mantissa * 16) / 16, exponent)
    left = [0.0]
    while edge < 0.5:
        left.append(edge)
        edge *= GRADING_RATIO
    if 1.0 - left[-1] > GRADING_RATIO * left[-1]:
        left.append(0.5)
    return np.array(left + [1.0 - e for e in reversed(left) if e < 0.5])


def _nodes_and_weights(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + half[:, None] * gauss_t[None, :]).ravel()
    weights = (half[:, None] * gauss_w[None, :]).ravel()
    return nodes, weights


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
    if mode == "reduced":
        perms = itertools.permutations(range(n - 1))
        anchored = {n - 1: 0}
        first_free_slot = 1
    else:
        perms = itertools.permutations(range(n))
        anchored = {}
        first_free_slot = 0

    def edge_list(slot_of: dict[int, int]) -> Ordering:
        return tuple(sorted(
            (tuple(sorted((slot_of[i], slot_of[j]))), power)
            for i, j, power in diagram.edges
        ))

    multiplicity: dict[Ordering, int] = {}
    for perm in perms:
        slot_of = dict(anchored)
        for k, vertex in enumerate(perm):
            slot_of[vertex] = first_free_slot + k
        key = edge_list(slot_of)
        if mode == "reduced":
            key = min(key, edge_list({v: (n - k) % n for v, k in slot_of.items()}))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    return [(count, key) for key, count in multiplicity.items()]


def _integrate_level(
    propagator: Propagator,
    per_diagram: list[list[tuple[int, Ordering]]],
    dim: int,
    nodes: np.ndarray,
    weights: np.ndarray,
    mode: str,
) -> np.ndarray:
    """Raw simplex integrals for same-order diagrams on one product grid."""
    beta = propagator.beta
    n_nodes = nodes.size
    needed_pairs = {
        pair for classes in per_diagram for _, edge_slots in classes for pair, _ in edge_slots
    }

    totals = np.zeros(len(per_diagram))
    chunk = CHUNK_NODES if dim > 1 else n_nodes
    for start in range(0, n_nodes, chunk):
        stop = min(start + chunk, n_nodes)
        positions: list[np.ndarray | float] = [0.0]
        measure: np.ndarray | float = 1.0
        remaining: np.ndarray | float = beta
        current: np.ndarray | float = 0.0
        for axis in range(dim):
            shape = [1] * dim
            if axis == 0:
                r_ax = nodes[start:stop]
                w_ax = weights[start:stop]
            else:
                r_ax = nodes
                w_ax = weights
            shape[axis] = r_ax.size
            r_ax = r_ax.reshape(shape)
            w_ax = w_ax.reshape(shape)
            gap = remaining * r_ax
            measure = measure * w_ax * remaining
            current = current + gap
            positions.append(current)
            remaining = remaining * (1.0 - r_ax)
        if mode == "full":
            measure = measure * remaining
        # at_separation rejects separations outside [0, beta]; keep
        # round-off from reaching its range check
        powered = {
            ((a, b), 1): propagator.at_separation(
                np.clip(positions[b] - positions[a], 0.0, beta)
            )
            for (a, b) in needed_pairs
        }
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
    propagator = Propagator(params.m, omega_big, params.beta)
    per_diagram = [_slot_orderings(d, mode) for d in diagrams]
    dim = diagrams[0].order - 1
    edges = _panel_edges(params.beta * omega_big)
    embedded = None
    for nodes_per_panel in LADDER:
        values = _integrate_level(
            propagator, per_diagram, dim,
            *_nodes_and_weights(edges, nodes_per_panel), mode,
        )
        if embedded is not None:
            yield values, np.abs(values - embedded)
        embedded = values


def _refined_integrals(
    params: ModelParams,
    omega_big: float,
    diagrams: list[DiagramSpec],
    coeffs: np.ndarray,
    mode: str,
    what: str,
) -> float:
    """Sum of ``coeffs`` times the diagrams' simplex integrals.

    Accepts the first rung of ``_rungs`` where every diagram's
    |full - embedded| is below ``REL_TOL`` times |full|; else raises
    ConvergenceError with the last rung's value and bound
    sum(|coeffs| * |full - embedded|).  The strict test rejects a rung that
    integrates to exactly zero, as every rung does once all nodes sit
    beyond the decay length (beta*Omega above about 2e17).  Round-off grows
    like beta*Omega*eps and reaches ``REL_TOL`` near beta*Omega = 1e8, so
    points are certified up to about 4e7 and fail from about 7e7.  Once
    the embedded rule resolves the integrand, the difference
    over-estimates the error of the value returned; an embedded rule of
    one or two nodes on panels wider than the decay length 1/(beta Omega)
    could agree with the full rule by accident, so the ladder starts at 8.
    One BLAS thread on a 2-core VM, m = omega = lambda = 1: order 4 costs
    3 ms at beta*Omega <= 2 (the 8/16 rung passes), 11 ms at 3-10 (16/24)
    and 28 ms at 12-24 (24/32); on graded panels 0.16-0.18 s at beta*Omega
    24-64, 0.28 s at 72-128, 0.43-0.5 s at 160-400, 1.3 s at 1000 and
    about 2 s at 1600-8000; orders 2 and 3 take a few ms.
    """
    for values, bounds in _rungs(params, omega_big, diagrams, mode):
        if np.all(bounds < REL_TOL * np.abs(values)):
            return float(np.sum(coeffs * values))
    raise ConvergenceError(
        f"{what} did not stabilize to rel_tol={REL_TOL} "
        f"on the {LADDER[-2]}/{LADDER[-1]} rung",
        value=float(np.sum(coeffs * values)),
        bound=float(np.sum(np.abs(coeffs) * bounds)),
    )


def quad_diagram(
    params: ModelParams,
    omega_big: float,
    diagram: DiagramSpec,
    mode: str = "reduced",
) -> float:
    """Contribution of one diagram to the free energy, by quadrature.

    Returns sign * (lambda^n / n!) * N * integral, i.e. the same
    quantity the closed forms of ``series`` decompose; summing the
    diagrams of one order reproduces the corresponding correction.
    ``mode="full"`` integrates all n times (with the 1/beta bookkeeping
    factor) instead of using translation invariance; the two modes
    agreeing is a consistency check of the circle geometry.
    """
    if mode not in ("reduced", "full"):
        raise ValidationError(f"mode must be 'reduced' or 'full', got {mode}")
    n = diagram.order
    prefactor = diagram.sign * params.lam**n / math.factorial(n) * diagram.symmetry_factor
    if mode == "full":
        prefactor /= params.beta
    return _refined_integrals(params, omega_big, [diagram], np.array([prefactor]),
                              mode, f"quadrature for diagram {diagram.label}")


def quad_correction(params: ModelParams, omega_big: float, order: int) -> float:
    """Sum of all built-in diagrams of one order (the oracle for c_n).

    Same-order diagrams share one quadrature grid and one set of
    propagator evaluations per rung.
    """
    chosen = [d for d in builtin_diagrams() if d.order == order]
    if not chosen:
        raise ValidationError(f"no built-in diagrams of order {order}")
    base = chosen[0].sign * params.lam**order / math.factorial(order)
    coeffs = base * np.array([d.symmetry_factor for d in chosen])
    return _refined_integrals(params, omega_big, chosen, coeffs, "reduced",
                              f"order-{order} quadrature")
