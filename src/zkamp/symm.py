"""Permutations, graphs, and their basis encodings.

The lexicographic enumeration of S_n fixes the permutation-register basis,
and the pair-bit code fixes the graph-register basis, so measurement
outcomes are reproducible across runs.  S_n is one read-only (n!, n) integer
table, from which ``protocol.Instance`` builds the relabeling basis of its
graph pair once.  Everything is still brute force on purpose, now over that
one table; the guard n <= 6 keeps it at 720 rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

MAX_VERTICES = 6


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0..n-1}; vertex i is sent to mapping[i]."""

    n: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.n or sorted(self.mapping) != list(range(self.n)):
            raise ValueError(f"{self.mapping} is not a permutation of 0..{self.n - 1}")



def enumerate_sn(n: int) -> np.ndarray:
    """All of S_n as a read-only ``(n!, n)`` table in lexicographic row order.

    Row i, which maps vertex v to ``[i, v]``, is basis index i of the permutation register.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"n must be in 1..{MAX_VERTICES}, got {n}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    table = np.fromiter(flat, dtype=np.int64, count=math.factorial(n) * n).reshape(-1, n)
    table.setflags(write=False)
    return table


def lehmer_rank(perms: np.ndarray) -> np.ndarray:
    """Each last-axis permutation's :func:`enumerate_sn` row: its Lehmer code's ``sum_i L_i (n-1-i)!``."""
    n = perms.shape[-1]
    later = np.arange(n)[:, None] < np.arange(n)
    later_smaller = ((perms[..., :, None] > perms[..., None, :]) & later).sum(axis=-1)
    return np.sum(later_smaller * [math.factorial(n - 1 - i) for i in range(n)], axis=-1)


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
    return Graph(g.n, ((p.mapping[u], p.mapping[v]) for u, v in g.edges))


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


def orbit_codes(g: Graph, perms: np.ndarray | None = None) -> np.ndarray:
    """``encode(act(p, g))`` for each row p of the S_n table ``perms``.

    Each edge ``(u, v)`` of g sets the code bit of the pair ``(p(u), p(v))``: one
    gather-and-sum of the pair-bit matrix over the table, without a relabeled
    graph.  Without ``perms`` (an orbit sized before any instance) it builds the table.
    """
    perms = enumerate_sn(g.n) if perms is None else perms
    bits = np.zeros((g.n, g.n), dtype=np.int64)
    for k, (first, second) in enumerate(vertex_pairs(g.n)):
        bits[first, second] = bits[second, first] = 1 << k
    u, v = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2).T
    return bits[perms[:, u], perms[:, v]].sum(axis=1)


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
