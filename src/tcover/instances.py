"""Deterministic graph generators and the small-graph test corpus."""

from __future__ import annotations

from typing import Iterator

from .graph import Graph


class ParameterOutOfRangeError(ValueError):
    """A generator parameter violates its precondition."""


class OddParameterError(ValueError):
    """The hard-instance family is only defined for even sizes."""


def hard_instance(n: int) -> Graph:
    """The hard family for matching-based covering heuristics.

    An apex vertex 0 is joined to the top vertex of each of ``n`` rails;
    rail i hangs from top vertex i down to bottom vertex n+i; consecutive
    bottoms pair up in n/2 rungs.  Edge ids: spokes (0,i) first, then
    rails (i, n+i), then rungs (n+2j-1, n+2j).  The maximum matching has
    size n, yet the apex plus the rungs already form a total cover of
    size n/2 + 1, so covers built from matched vertices are almost four
    times the optimum while the certificate-based algorithm stays within
    a factor of two.
    """
    if n % 2 != 0:
        raise OddParameterError(f"family requires even n, got {n}")
    if n < 2:
        raise ParameterOutOfRangeError(f"family requires n >= 2, got {n}")
    pairs = [(0, i) for i in range(1, n + 1)]
    pairs += [(i, n + i) for i in range(1, n + 1)]
    pairs += [(n + 2 * j - 1, n + 2 * j) for j in range(1, n // 2 + 1)]
    return Graph(2 * n + 1, pairs)


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRangeError(f"path requires n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterOutOfRangeError(f"cycle requires n >= 3, got {n}")
    pairs = sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    return Graph(n, pairs)


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to each of the n-1 leaves."""
    if n < 1:
        raise ParameterOutOfRangeError(f"star requires n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterOutOfRangeError(f"complete requires n >= 1, got {n}")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def petersen() -> Graph:
    """The Petersen graph: outer 5-cycle, inner pentagram, five spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, sorted(tuple(sorted(p)) for p in pairs))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's golden-ratio state increment


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style random graph, deterministic in (n, p, seed).

    Pairs are visited in lexicographic order (0,1), (0,2), ...; each pair
    draws one splitmix64 value from a stream seeded with ``seed`` and is
    kept when the draw falls below ``p * 2**64``.  The stream is fixed
    here so instance corpora can be regenerated bit-exactly from
    (n, p, seed): draw i, counted from 1, is the splitmix64 mix of the
    state ``seed + i * 0x9E3779B97F4A7C15 mod 2**64``.

    The draws are computed a row at a time.  The states of row u's pairs
    (u, u+1) ... (u, n-1) form an arithmetic progression; they are packed
    one per 128-bit lane of a Python int, the value in the lane's low 64
    bits, so that every 64x64-bit product stays inside its lane and each
    mix step is a few big-int operations per row, not per pair.  Still
    O(n^2) draws, whatever p is.
    """
    if n < 0:
        raise ParameterOutOfRangeError(f"gnp requires n >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRangeError(f"gnp requires 0 <= p <= 1, got {p}")
    threshold = int(p * float(1 << 64))
    lanes = max(n - 1, 0)
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    low = _MASK64 * ones
    # a lane's bit 64 is set after adding the bias exactly when its draw >= threshold
    bias = ((1 << 64) - threshold) * ones
    # lane j steps (lanes - j) * gamma from the row's start; shifted right by
    # u lanes, row u's lane j holds pair (u, n-1-j)
    ramp = int.from_bytes(b"".join(((lanes - j) * _GAMMA & _MASK64).to_bytes(16, "little")
                                   for j in range(lanes)), "little")
    state = seed & _MASK64
    pairs = []
    for u in range(n - 1):
        count = n - 1 - u
        shift = 128 * u
        z = (state * (ones >> shift) + (ramp >> shift)) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        # the next lane's bits shifted in land at bits 97..127, clear of bit 64
        z = (z ^ (z >> 31)) + (bias >> shift)
        # big-endian byte 7 of each lane is its bit 64, for pairs (u, u+1) first
        dropped = z.to_bytes(16 * count, "big")[7::16]
        i = dropped.find(0)
        while i != -1:
            pairs.append((u, u + 1 + i))
            i = dropped.find(0, i + 1)
        state = (state + count * _GAMMA) & _MASK64
    return Graph(n, pairs)


def add_isolated(g: Graph, t: int) -> Graph:
    """Append t isolated vertices with the next indices."""
    if t < 0:
        raise ParameterOutOfRangeError(f"isolated vertex count must be >= 0, got {t}")
    return Graph(g.n + t, g.edge_pairs())


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, in edge-mask order."""
    if not 0 <= n <= 6:
        raise ParameterOutOfRangeError(f"enumeration is limited to 0 <= n <= 6, got {n}")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
