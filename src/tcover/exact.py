"""Exact oracle for minimum total covers.

Each element x has a bitmask of its closed neighbourhood, the elements
it covers: x and row x of ``total_graph(g)``.  A minimum cover is a
smallest set of elements whose masks OR to all ones.  One depth-first
branch and bound finds it; it is the set-cover branching of Fomin,
Grandoni & Kratsch (J. ACM 2009).  The masks are built here from
``adj`` and ``edges``: the oracle does not go through ``total_graph``
or ``is_total_cover`` to search, which keeps it independent of the
approximation code.  The set a search returns is confirmed once
against the plain definition.  Two keyword guards keep accidental
blowups in check: ``max_elements`` refuses larger inputs with
TooLargeError, and ``max_candidates`` caps the search nodes visited with
BudgetExceededError.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import CertificateError, ElementSet, Graph, GraphError, format_element, is_total_cover

__all__ = [
    "BudgetExceededError",
    "ExactResult",
    "TooLargeError",
    "exact_total_cover",
]

MAX_ELEMENTS = 32
MAX_CANDIDATES = 100_000_000


class TooLargeError(ValueError):
    """An exact search was requested beyond its size guard."""


class BudgetExceededError(ValueError):
    """An exact search exceeded its search-node budget; ``cardinality_reached``
    is the size of the best cover it had found."""

    def __init__(self, message: str, cardinality_reached: int):
        super().__init__(message)
        self.cardinality_reached = cardinality_reached


class ExactResult(NamedTuple):
    """A provably minimum set, with the number of search nodes visited."""

    optimum: ElementSet
    candidates_checked: int

    @property
    def size(self) -> int:
        return len(self.optimum)


def _total_cover_masks(g: Graph) -> list[int]:
    """Closed-neighbourhood masks over V + E: vertex v is bit v, edge e is
    bit n + e.  A vertex covers itself, its neighbours and its incident
    edges; an edge covers itself, both its endpoints and every edge that
    shares an endpoint with it (the incident edges of its endpoints, which
    both hold the edge itself).  One pass over ``g.edges`` ORs each edge's
    bit into its endpoints' incidence masks."""
    n = g.n
    incident = [0] * n
    for eid, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << (n + eid)
        incident[v] |= 1 << (n + eid)
    vertex_masks = [1 << v | sum(1 << w for w in g.adj[v]) | incident[v] for v in range(n)]
    edge_masks = [1 << u | 1 << v | incident[u] | incident[v] for u, v in g.edges]
    return vertex_masks + edge_masks


def _members(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _smallest_covering(masks: list[int], max_candidates: int) -> tuple[tuple[int, ...], int]:
    """A smallest index set whose masks OR to all ones, with the number of
    search nodes visited.  The masks are closed neighbourhoods: mask i
    holds bit i, and bit j exactly when mask j holds bit i.  So the full
    set covers, and the masks that cover bit b are those ``masks[b]``
    names.  Raises BudgetExceededError at node ``max_candidates + 1``.

    Depth first with an explicit stack, so no depth meets the recursion
    limit.  A node branches on the uncovered bit with the fewest coverers
    not banned, one child per coverer, widest first, and bans each child
    from its later siblings' subtrees.  It is pruned when its size plus
    the uncovered bits over the widest mask, rounded up, reaches the best
    cover's size.
    """
    widest = max((mask.bit_count() for mask in masks), default=1)
    everything = (1 << len(masks)) - 1
    best = tuple(range(len(masks)))
    nodes = 0
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]  # (chosen, covered, banned)
    while stack:
        chosen, covered, banned = stack.pop()
        nodes += 1
        if nodes > max_candidates:
            raise BudgetExceededError(
                f"exceeded max_candidates={max_candidates} at cardinality {len(best)}",
                cardinality_reached=len(best),
            )
        uncovered = everything & ~covered
        if len(chosen) - (-uncovered.bit_count() // widest) >= len(best):
            continue
        if not uncovered:
            best = chosen
            continue
        allowed = ~banned
        bit = min(_members(uncovered), key=lambda b: (masks[b] & allowed).bit_count())
        children = sorted(_members(masks[bit] & allowed),
                          key=lambda i: -(masks[i] & uncovered).bit_count())
        siblings = []
        for i in children:
            siblings.append(((*chosen, i), covered | masks[i], banned))
            banned |= 1 << i
        stack += reversed(siblings)  # the first child is popped first
    return best, nodes


def exact_total_cover(g: Graph, *, max_elements: int = MAX_ELEMENTS,
                      max_candidates: int = MAX_CANDIDATES) -> ExactResult:
    """Minimum total cover by branch and bound over subsets of V + E.

    A total cover of ``g`` is a dominating set of its total graph: the
    mask of element x is bit x plus the bits of row x of
    ``total_graph(g)``.  The masks come from ``g.adj`` and ``g.edges``,
    not through ``total_graph`` or ``is_total_cover``; ``is_total_cover``
    only confirms the returned set, raising CertificateError if it finds
    an element the set misses.  A negative guard raises GraphError.
    """
    if max_elements < 0 or max_candidates < 0:
        raise GraphError("search limits must be non-negative")
    total = g.n + len(g.edges)
    if total > max_elements:
        raise TooLargeError(f"{total} elements exceeds max_elements={max_elements}")
    combo, checked = _smallest_covering(_total_cover_masks(g), max_candidates)
    optimum = ElementSet(g, combo)
    ok, witness = is_total_cover(optimum)
    if not ok:
        raise CertificateError(f"exact total cover misses {format_element(g, witness)}")
    return ExactResult(optimum, checked)
