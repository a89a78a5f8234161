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
rule.  An embedded rule with half as many nodes on the same panels
estimates the error, as the Gauss-Kronrod pairs of QUADPACK do
(Piessens et al., 1983), though the nodes here are not nested.  The
panels are halved only while the two rules disagree by more than the
tolerance, and the reported bound is their difference at the last
level.  At low temperature the propagator localizes the integrand near
the corners, so the panels are graded geometrically toward both ends of
every axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Propagator
from .errors import ConvergenceError, ValidationError

__all__ = [
    "DiagramSpec",
    "QuadratureSpec",
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


@dataclass(frozen=True)
class QuadratureSpec:
    """Panel/node layout and refinement policy for the simplex rule."""

    nodes_per_panel: int = 32
    panels_per_dim: int = 4
    rel_tol: float = 1e-9
    max_refinements: int = 3
    grading_threshold: float = 24.0
    chunk_nodes: int = 16

    def __post_init__(self) -> None:
        # the embedded error rule gets half the nodes; with fewer than three
        # it can agree with the full rule by accident (see _refined_integrals)
        if self.nodes_per_panel < 6:
            raise ValidationError("nodes_per_panel must be >= 6")
        if self.panels_per_dim < 1:
            raise ValidationError("panels_per_dim must be >= 1")
        if not (self.rel_tol > 0.0):
            raise ValidationError("rel_tol must be positive")
        if self.max_refinements < 1:
            raise ValidationError("max_refinements must be >= 1")
        if self.chunk_nodes < 1:
            raise ValidationError("chunk_nodes must be >= 1")


def _panel_edges(x: float, qspec: QuadratureSpec, level: int) -> np.ndarray:
    """Panel boundaries in r-space [0, 1], halved ``level`` times.

    Beyond the grading threshold the propagator decay length 1/x (in
    units of the axis) is resolved with geometrically shrinking panels
    at both ends of the axis.
    """
    if x <= qspec.grading_threshold:
        edges = np.linspace(0.0, 1.0, qspec.panels_per_dim + 1)
    else:
        deepest = min(42, max(2, int(math.ceil(math.log2(x)))))
        left = [0.0] + [2.0 ** (-j) for j in range(deepest, 0, -1)]
        edges = np.array(left[:-1] + [1.0 - e for e in reversed(left[:-1])] + [1.0])
    for _ in range(level):
        mids = 0.5 * (edges[1:] + edges[:-1])
        edges = np.sort(np.concatenate([edges, mids]))
    return edges


def _nodes_and_weights(edges: np.ndarray, nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + half[:, None] * gauss_t[None, :]).ravel()
    weights = (half[:, None] * gauss_w[None, :]).ravel()
    return nodes, weights


Ordering = tuple[tuple[tuple[int, int], int], ...]


def _slot_orderings(
    diagram: DiagramSpec, mode: str
) -> tuple[list[tuple[int, Ordering]], set[tuple[int, int]]]:
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
    needed = {pair for key in multiplicity for pair, _ in key}
    return [(count, key) for key, count in multiplicity.items()], needed


def _integrate_level(
    propagator: Propagator,
    per_diagram: list[tuple[list[tuple[int, Ordering]], set[tuple[int, int]]]],
    dim: int,
    nodes: np.ndarray,
    weights: np.ndarray,
    chunk_nodes: int,
    mode: str,
) -> np.ndarray:
    """Raw simplex integrals for same-order diagrams on one product grid."""
    beta = propagator.beta
    n_nodes = nodes.size
    needed_pairs: set[tuple[int, int]] = set()
    for _, needed in per_diagram:
        needed_pairs |= needed

    totals = np.zeros(len(per_diagram))
    chunk = chunk_nodes if dim > 1 else n_nodes
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
        for index, (classes, _) in enumerate(per_diagram):
            for count, edge_slots in classes:
                product: np.ndarray | None = None
                for pair, power in edge_slots:
                    factor = powered.get((pair, power))
                    if factor is None:
                        factor = powered[(pair, power)] = powered[(pair, 1)] ** power
                    product = factor if product is None else product * factor
                totals[index] += count * float(np.sum(measure * product))
    return totals


def _refined_integrals(
    params: ModelParams,
    omega_big: float,
    diagrams: list[DiagramSpec],
    qspec: QuadratureSpec,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Integrate on panels halved level by level until the error estimate passes.

    At each level the ``nodes_per_panel`` Gauss-Legendre rule and an
    embedded rule with half as many nodes (at least three) run on the same
    panel edges.  Refinement stops at the first level where every
    diagram's |full - embedded| is at most ``rel_tol`` times |full|.
    Returns (values, bounds, converged flag): the full rule's values and
    |full - embedded| at the last level evaluated.  Once the embedded
    rule resolves the integrand its error dominates the difference, which
    then over-estimates the error of the value returned.  An embedded rule
    of one or two nodes on panels wider than the decay length
    1/(beta Omega) could agree with the full rule by accident and
    under-estimate it; ``QuadratureSpec`` rules that out.
    """
    propagator = Propagator(params.m, omega_big, params.beta)
    per_diagram = [_slot_orderings(d, mode) for d in diagrams]
    dim = diagrams[0].order - 1
    embedded_nodes = qspec.nodes_per_panel // 2
    for level in range(qspec.max_refinements + 1):
        edges = _panel_edges(params.beta * omega_big, qspec, level)
        values, embedded = (
            _integrate_level(
                propagator, per_diagram, dim,
                *_nodes_and_weights(edges, nodes_per_panel),
                qspec.chunk_nodes, mode,
            )
            for nodes_per_panel in (qspec.nodes_per_panel, embedded_nodes)
        )
        bounds = np.abs(values - embedded)
        if np.all(bounds <= qspec.rel_tol * np.abs(values)):
            return values, bounds, True
    return values, bounds, False


def quad_diagram(
    params: ModelParams,
    omega_big: float,
    diagram: DiagramSpec,
    qspec: QuadratureSpec | None = None,
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
    if qspec is None:
        qspec = QuadratureSpec()
    if mode not in ("reduced", "full"):
        raise ValidationError(f"mode must be 'reduced' or 'full', got {mode}")
    if not (omega_big > 0.0) or not math.isfinite(omega_big):
        raise ValidationError(
            f"trial frequency must be positive and finite, got {omega_big}"
        )
    n = diagram.order
    prefactor = diagram.sign * params.lam**n / math.factorial(n) * diagram.symmetry_factor
    if mode == "full":
        prefactor /= params.beta

    values, bounds, converged = _refined_integrals(
        params, omega_big, [diagram], qspec, mode
    )
    if not converged:
        raise ConvergenceError(
            f"quadrature for diagram {diagram.label} did not stabilize to "
            f"rel_tol={qspec.rel_tol} within {qspec.max_refinements} refinements",
            value=prefactor * values[0],
            bound=abs(prefactor) * bounds[0],
        )
    return prefactor * values[0]


def quad_correction(
    params: ModelParams,
    omega_big: float,
    order: int,
    qspec: QuadratureSpec | None = None,
) -> float:
    """Sum of all built-in diagrams of one order (the oracle for c_n).

    Same-order diagrams share one quadrature grid and one set of
    propagator evaluations per refinement level.
    """
    if qspec is None:
        qspec = QuadratureSpec()
    chosen = [d for d in builtin_diagrams() if d.order == order]
    if not chosen:
        raise ValidationError(f"no built-in diagrams of order {order}")
    if not (omega_big > 0.0) or not math.isfinite(omega_big):
        raise ValidationError(
            f"trial frequency must be positive and finite, got {omega_big}"
        )
    base = chosen[0].sign * params.lam**order / math.factorial(order)
    values, bounds, converged = _refined_integrals(
        params, omega_big, chosen, qspec, "reduced"
    )
    contributions = base * np.array([d.symmetry_factor for d in chosen]) * values
    if not converged:
        raise ConvergenceError(
            f"order-{order} quadrature did not stabilize to "
            f"rel_tol={qspec.rel_tol} within {qspec.max_refinements} refinements",
            value=float(np.sum(contributions)),
            bound=float(abs(base) * np.sum(np.array([d.symmetry_factor for d in chosen]) * bounds)),
        )
    return float(np.sum(contributions))
