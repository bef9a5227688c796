"""Exhaustive-search oracles for minimum total covers and dominating sets.

Candidate sets are ranked by increasing cardinality, then in
lexicographic order, and the first that covers everything is returned.
Each element has a bitmask of its closed neighbourhood, the elements it
covers.  The search walks each cardinality depth first over prefixes,
carrying a prefix's OR, and skips a prefix's whole subtree when no
completion can cover: the prefix with every later mask still misses a
bit, or more bits are uncovered than the members still to pick can hold.
``candidates_checked`` is the optimum's rank in that order, with skipped
subtrees counted whole, so it and the ``max_candidates`` budget mean what
they would if every candidate were tested.  The masks are built here
from adjacency and incidence lists: neither oracle goes through
``total_graph`` or ``is_total_cover`` to search, which keeps the oracles
independent of the approximation code and of each other.  The set a
search returns is confirmed once against the plain definition.  Guards
keep accidental blowups in check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .graph import (
    BudgetExceededError,
    ElementSet,
    Graph,
    TooLargeError,
    format_element,
    is_total_cover,
    total_graph,
)
from .matching import CertificateError


@dataclass(frozen=True)
class SearchLimits:
    """Guards for the exhaustive searches.

    ``start_size`` defaults to 0 so the search is independent of any
    lower-bound reasoning; callers may raise it (e.g. to a certified
    lower bound) to save time at the cost of that independence.
    """

    max_elements: int = 32
    max_candidates: int = 100_000_000
    start_size: int = 0

    def __post_init__(self):
        if self.max_elements < 0 or self.max_candidates < 0 or self.start_size < 0:
            raise ValueError("search limits must be non-negative")


@dataclass(frozen=True)
class ExactResult:
    """A provably minimum set, with search statistics."""

    optimum: ElementSet
    size: int
    candidates_checked: int


@dataclass(frozen=True)
class TotalGraphCrossCheck:
    """Minimum total cover size vs. minimum dominating set size of the
    total graph, computed through two independent code paths."""

    total_cover_size: int
    total_graph_domination_size: int
    agree: bool


def _bits(ids: Iterable[int], offset: int = 0) -> int:
    """A mask with bit offset + i set for every i in ids."""
    mask = 0
    for i in ids:
        mask |= 1 << (offset + i)
    return mask


def _total_cover_masks(g: Graph) -> list[int]:
    """Closed-neighbourhood masks over V + E: vertex v is bit v, edge e is
    bit n + e.  A vertex covers itself, its neighbours and its incident
    edges; an edge covers itself, both its endpoints and every edge that
    shares an endpoint with it (the incidence lists of its endpoints, which
    both hold the edge itself)."""
    n = g.n
    vertex_masks = [_bits((v, *g.adj[v])) | _bits(g.inc[v], n) for v in range(n)]
    edge_masks = [_bits((u, v)) | _bits(g.inc[u] + g.inc[v], n) for u, v in g.edges]
    return vertex_masks + edge_masks


def _domination_masks(g: Graph) -> list[int]:
    """Closed-neighbourhood masks over V: vertex v dominates itself and its
    neighbours."""
    return [_bits((v, *g.adj[v])) for v in range(g.n)]


def _spend(checked: int, step: int, budget: int, size: int) -> int:
    """``checked + step``; raises BudgetExceededError when that passes the budget."""
    if checked + step > budget:
        raise BudgetExceededError(
            f"exceeded max_candidates={budget} at cardinality {size}",
            cardinality_reached=size,
        )
    return checked + step


def _first_covering(masks: list[int], limits: SearchLimits) -> tuple[tuple[int, ...], int]:
    """The lexicographically first smallest index set, from size
    ``limits.start_size`` up, whose masks OR to all ones, with its rank
    among the candidates of the enumeration.  Every mask holds its own
    bit, so the full index set covers and the search always ends with a
    result.  Raises ValueError if ``limits.start_size`` exceeds the number
    of masks, and BudgetExceededError at candidate
    ``limits.max_candidates + 1``.

    Each size is walked as the module docstring says, with an explicit
    stack, so a search as deep as ``max_elements`` never meets the
    recursion limit.
    """
    count = len(masks)
    if limits.start_size > count:
        raise ValueError(f"start_size={limits.start_size} exceeds the {count} elements")
    everything = (1 << count) - 1
    budget = limits.max_candidates
    # later[i]: the OR of masks[i:]; widest[i]: the most bits in one of them
    later = [0] * (count + 1)
    widest = [0] * (count + 1)
    for i in reversed(range(count)):
        later[i] = later[i + 1] | masks[i]
        widest[i] = max(widest[i + 1], masks[i].bit_count())
    checked = 0
    for size in range(limits.start_size, count + 1):
        if size == 0:  # the empty set covers only an empty graph
            checked = _spend(checked, 1, budget, size)
            if everything == 0:
                return (), checked
            continue
        combo: list[int] = []
        ors = [0]  # ors[d]: the OR of the masks of combo[:d]
        i = 0  # the next index to try at position len(combo)
        while True:
            left = size - len(combo)  # members still to pick, this one included
            if i > count - left:  # too few indices remain: back up
                if not combo:
                    break
                i = combo.pop() + 1
                ors.pop()
                continue
            if left == 1:
                need = everything & ~ors[-1]
                for k in range(i, count):
                    if masks[k] & need == need:
                        return (*combo, k), _spend(checked, k - i + 1, budget, size)
                checked = _spend(checked, count - i, budget, size)
                i = count
                continue
            covered = ors[-1] | masks[i]
            if (covered | later[i + 1] != everything
                    or (everything & ~covered).bit_count() > (left - 1) * widest[i + 1]):
                checked = _spend(checked, comb(count - 1 - i, left - 1), budget, size)
                i += 1
                continue
            combo.append(i)
            ors.append(covered)
            i += 1


def exact_total_cover(g: Graph, limits: SearchLimits | None = None) -> ExactResult:
    """Minimum total cover by staged exhaustive search.

    Enumerates candidate subsets of V + E (vertices first, then edges) at
    cardinality start_size, start_size + 1, ... and returns the first one
    that covers everything, so the returned set is the lexicographically
    first optimum.  The masks come from ``g.adj`` and ``g.inc``, not
    through ``total_graph`` or ``is_total_cover``; ``is_total_cover``
    only confirms the returned set, raising CertificateError if it finds
    an element the set misses.
    """
    limits = limits or SearchLimits()
    total = g.n + len(g.edges)
    if total > limits.max_elements:
        raise TooLargeError(
            f"{total} elements exceeds max_elements={limits.max_elements}"
        )
    combo, checked = _first_covering(_total_cover_masks(g), limits)
    optimum = ElementSet(g, combo)
    ok, witness = is_total_cover(g, optimum)
    if not ok:
        raise CertificateError(f"exact total cover misses {format_element(g, witness)}")
    return ExactResult(optimum, len(combo), checked)


def exact_dominating_set(g: Graph, limits: SearchLimits | None = None) -> ExactResult:
    """Minimum dominating set by the same staged search over vertex subsets.

    A set dominates when every vertex is a member or adjacent to one.  The
    masks come from ``g.adj`` alone, not through ``total_graph`` or
    ``is_total_cover``, so cross-checks between the two oracles compare
    independent constructions.  Raises CertificateError if a direct scan
    finds a vertex the returned set leaves undominated.
    """
    limits = limits or SearchLimits()
    n = g.n
    if n > limits.max_elements:
        raise TooLargeError(f"{n} vertices exceeds max_elements={limits.max_elements}")
    combo, checked = _first_covering(_domination_masks(g), limits)
    members = set(combo)
    for w in range(n):
        if w not in members and members.isdisjoint(g.adj[w]):
            raise CertificateError(f"exact dominating set misses {format_element(g, w)}")
    return ExactResult(ElementSet(g, combo), len(combo), checked)


def cross_check_total_graph(g: Graph, limits: SearchLimits | None = None) -> TotalGraphCrossCheck:
    """Check that the minimum total cover of ``g`` has the same size as a
    minimum dominating set of the total graph of ``g``."""
    cover_size = exact_total_cover(g, limits).size
    tg = total_graph(g)
    domination_size = exact_dominating_set(tg, limits).size
    return TotalGraphCrossCheck(cover_size, domination_size, cover_size == domination_size)
