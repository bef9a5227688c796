"""Deterministic graph generators."""

from __future__ import annotations

from itertools import chain

from .graph import MAX_VERTICES, Graph, GraphError, check_vertex_count


def hard_instance(n: int) -> Graph:
    """The hard family for matching-based covering heuristics.

    An apex vertex 0 is joined to the top vertex of each of ``n`` rails;
    rail i hangs from top vertex i down to bottom vertex n+i; consecutive
    bottoms pair up in n/2 rungs.  Ids go to spokes (0,i) first, then
    rails (i, n+i), then rungs (n+2j-1, n+2j).  The maximum matching has
    size n, yet the apex plus the rungs already form a total cover of
    size n/2 + 1, so covers built from matched vertices are almost four
    times the optimum while the certificate-based algorithm stays within
    a factor of two.
    """
    if n % 2 != 0:
        raise GraphError(f"family requires even n, got {n}")
    if n < 2:
        raise GraphError(f"family requires n >= 2, got {n}")
    spokes = ((0, i) for i in range(1, n + 1))
    rails = ((i, n + i) for i in range(1, n + 1))
    rungs = ((n + 2 * j - 1, n + 2 * j) for j in range(1, n // 2 + 1))
    return Graph(2 * n + 1, chain(spokes, rails, rungs))


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path requires n >= 1, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle requires n >= 3, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to each of the n-1 leaves."""
    if n < 1:
        raise GraphError(f"star requires n >= 1, got {n}")
    return Graph(n, ((0, i) for i in range(1, n)))


def complete(n: int) -> Graph:
    """K_n.  Refused before any pair is made when its n(n-1)/2 edges exceed
    MAX_VERTICES: well below the vertex ceiling its edges alone would
    take gigabytes."""
    if n < 1:
        raise GraphError(f"complete requires n >= 1, got {n}")
    check_vertex_count(n)
    m = n * (n - 1) // 2
    if m > MAX_VERTICES:
        raise GraphError(f"complete({n}) has {m} edges, more than MAX_VERTICES={MAX_VERTICES}")
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


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

    The n(n-1)/2 draws are computed in chunks of n-1 consecutive ones,
    which cross row boundaries.  A chunk's states are packed one per
    128-bit lane of a Python int, the value in the lane's low 64 bits, so
    that every 64x64-bit product stays inside its lane and each mix step
    is a few big-int operations per chunk, not per pair; the next chunk's
    states are these plus (n-1) * gamma in every lane.  Working memory is
    O(n); still O(n^2) draws, whatever p is.
    """
    if n < 0:
        raise GraphError(f"gnp requires n >= 0, got {n}")
    check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"gnp requires 0 <= p <= 1, got {p}")
    threshold = int(p * float(1 << 64))
    total = n * (n - 1) // 2
    lanes = max(n - 1, 1)  # one lane for n < 2, which has no draws, keeps the chunk step positive
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    low = _MASK64 * ones
    # a lane's bit 64 is set after adding the bias exactly when its draw >= threshold
    bias = ((1 << 64) - threshold) * ones
    step = (lanes * _GAMMA & _MASK64) * ones
    # lane j holds draw lanes - j of the chunk, so big-endian order is draw order
    states = int.from_bytes(b"".join(((seed + (lanes - j) * _GAMMA) & _MASK64).to_bytes(16, "little")
                                     for j in range(lanes)), "little")
    pairs = []
    u, row_end = 0, lanes  # k counts draws from 0; row u holds draws row_end - (n-1-u) .. row_end - 1
    for start in range(0, total, lanes):
        z = ((states ^ (states >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        # the next lane's bits shifted in land at bits 97..127, clear of bit 64
        z = (z ^ (z >> 31)) + bias
        # big-endian byte 7 of each lane is its bit 64
        dropped = z.to_bytes(16 * lanes, "big")[7::16]
        end = min(lanes, total - start)  # for odd n the last chunk is half full
        i = dropped.find(0, 0, end)
        while i != -1:
            k = start + i
            while k >= row_end:
                u += 1
                row_end += lanes - u
            pairs.append((u, k - row_end + n))
            i = dropped.find(0, i + 1, end)
        states = (states + step) & low
    return Graph(n, pairs)
