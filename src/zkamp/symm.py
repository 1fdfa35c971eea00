"""Permutations, graphs, and their basis encodings.

The lexicographic enumeration of S_n fixes the permutation-register basis,
and the pair-bit code fixes the graph-register basis, so measurement
outcomes are reproducible across runs.  Everything is brute force on
purpose; the guard n <= 6 keeps enumeration at 720 elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

MAX_VERTICES = 6


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..n-1}; vertex i is sent to mapping[i]."""

    n: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.n or sorted(self.mapping) != list(range(self.n)):
            raise ValueError(f"{self.mapping} is not a permutation of 0..{self.n - 1}")

    def __call__(self, vertex: int) -> int:
        return self.mapping[vertex]

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(n, tuple(range(n)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Permutation acting as p after q."""
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Permutation(p.n, tuple(p.mapping[q.mapping[i]] for i in range(p.n)))


def invert(p: Permutation) -> Permutation:
    inverse = [0] * p.n
    for i, j in enumerate(p.mapping):
        inverse[j] = i
    return Permutation(p.n, tuple(inverse))


def enumerate_sn(n: int) -> list[Permutation]:
    """All of S_n in lexicographic order of the mapping tuples.

    The position in this list is the authoritative basis index of the
    permutation register.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_VERTICES}, got {n}")
    return [Permutation(n, mapping) for mapping in itertools.permutations(range(n))]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", frozenset(norm))


def act(p: Permutation, g: Graph) -> Graph:
    """Relabel every edge endpoint through the permutation."""
    if p.n != g.n:
        raise ValueError(f"size mismatch: permutation on {p.n}, graph on {g.n}")
    return Graph(g.n, ((p(u), p(v)) for u, v in g.edges))


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    """All unordered pairs in lexicographic order; pair k owns code bit k."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def num_graph_codes(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def encode(g: Graph) -> int:
    """Basis index of a graph: bit k set iff the k-th pair is an edge."""
    code = 0
    for k, pair in enumerate(vertex_pairs(g.n)):
        if pair in g.edges:
            code |= 1 << k
    return code


def find_isomorphism(g0: Graph, g1: Graph) -> Optional[Permutation]:
    """First permutation in enumeration order mapping g0 onto g1, if any."""
    if g0.n != g1.n:
        raise ValueError(f"size mismatch: {g0.n} vs {g1.n}")
    for p in enumerate_sn(g0.n):
        if act(p, g0) == g1:
            return p
    return None


def parse_graph_literal(text: str) -> Graph:
    """Parse the CLI graph format, e.g. ``n=3;edges=01,12``.

    Each edge is two concatenated vertex digits; an empty edge list is the
    empty graph.
    """
    try:
        n_part, edge_part = text.split(";")
        key_n, n_value = n_part.split("=")
        key_e, edge_value = edge_part.split("=")
        if key_n.strip() != "n" or key_e.strip() != "edges":
            raise ValueError
        n = int(n_value)
    except ValueError:
        raise ValueError(
            f"bad graph literal {text!r}; expected the form 'n=3;edges=01,12'"
        ) from None
    edges = []
    for token in edge_value.split(","):
        token = token.strip()
        if not token:
            continue
        if len(token) != 2 or not token.isdigit():
            raise ValueError(f"bad edge token {token!r} in {text!r}")
        edges.append((int(token[0]), int(token[1])))
    return Graph(n, edges)


def format_graph_literal(g: Graph) -> str:
    edges = ",".join(f"{u}{v}" for u, v in sorted(g.edges))
    return f"n={g.n};edges={edges}"
