"""Labeled trees, the Pruefer codec, generators, and q-Laplacian data.

Vertices are labeled 1..n throughout, matching the Pruefer convention.
The q-Laplacian of a graph is I + (D - I) q^2 - q A: diagonal entry
1 + (deg(v) - 1) q^2 at vertex v, -q on edges, 0 elsewhere.

Matching weights: only permutations that are involutions along a matching
of the tree contribute to an immanant of a tree matrix (any longer
permutation cycle would need a cycle in the tree), so the entry-product
data of the whole symmetric group collapses to

    c_j(q) = sum over size-j matchings M of
             q^(2j) * prod_{v unmatched} (1 + (deg(v) - 1) q^2).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .ratpoly import RatPoly, conv, from_t

ALL_TREES_MAX_N = 9


@dataclass(frozen=True)
class Tree:
    """Labeled tree on vertices 1..n given by its edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tree needs at least one vertex")
        norm = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {e} out of range 1..{self.n}")
            norm.append((min(u, v), max(u, v)))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        if len(norm) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} edges, got {len(norm)}")
        object.__setattr__(self, "edges", tuple(norm))
        # n-1 edges and connectivity together certify acyclicity
        if self.n > 1 and not self._connected():
            raise ValueError("edge list is not connected")

    def _connected(self) -> bool:
        adj = self.adjacency()
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> tuple[int, ...]:
        """Degree sequence indexed by vertex; slot 0 is unused."""
        deg = [0] * (self.n + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def label(self) -> str:
        """Reproducible literal for reports: pruefer:... for n >= 2."""
        if self.n == 1:
            return "n1"
        return "pruefer:" + ",".join(map(str, pruefer_encode(self))) + f"@n={self.n}"


@dataclass(frozen=True)
class PolyMatrix:
    """Square grid of exact polynomials."""

    entries: tuple[tuple[RatPoly, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, rc: tuple[int, int]) -> RatPoly:
        r, c = rc
        return self.entries[r][c]


# -- Pruefer codec -----------------------------------------------------


def pruefer_encode(tree: Tree) -> tuple[int, ...]:
    """Classical Pruefer sequence: repeatedly strip the smallest leaf."""
    if tree.n < 2:
        raise ValueError("Pruefer encoding needs n >= 2")
    adj = {v: set(ws) for v, ws in tree.adjacency().items()}
    leaves = [v for v in adj if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(tree.n - 2):
        leaf = heapq.heappop(leaves)
        parent = adj[leaf].pop()
        adj[parent].discard(leaf)
        seq.append(parent)
        if len(adj[parent]) == 1:
            heapq.heappush(leaves, parent)
    return tuple(seq)


def pruefer_decode(seq: Sequence[int], n: int) -> Tree:
    """Inverse of pruefer_encode; bijection from sequences to labeled trees."""
    if n < 2:
        raise ValueError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be n-2={n - 2}, got {len(seq)}")
    for s in seq:
        if not (1 <= s <= n):
            raise ValueError(f"label {s} out of range 1..{n}")
    degree = [1] * (n + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, tuple(edges))


# -- generators --------------------------------------------------------


def path_tree(n: int) -> Tree:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Tree(n, tuple((i, i + 1) for i in range(1, n)))


def star_tree(n: int) -> Tree:
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Tree(n, tuple((1, v) for v in range(2, n + 1)))


def all_labeled_trees(n: int) -> Iterator[Tree]:
    """Every labeled tree on n vertices, once each, via Pruefer sequences."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n > ALL_TREES_MAX_N:
        raise ValueError(
            f"exhaustive generation capped at n <= {ALL_TREES_MAX_N} "
            f"(n^(n-2) trees); use random sampling instead"
        )
    for seq in product(range(1, n + 1), repeat=n - 2):
        yield pruefer_decode(seq, n)


def random_trees(n: int, count: int, seed: int) -> Iterator[Tree]:
    """Seeded uniform labeled trees (uniform Pruefer sequences)."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    for _ in range(count):
        seq = [rng.randint(1, n) for _ in range(n - 2)]
        yield pruefer_decode(seq, n)


def generate_trees(kind: str, n: int, seed: int | None = None,
                   count: int = 1) -> Iterator[Tree]:
    """Dispatcher over the tree sources: path, star, all, random."""
    if kind == "path":
        return iter([path_tree(n)])
    if kind == "star":
        return iter([star_tree(n)])
    if kind == "all":
        return all_labeled_trees(n)
    if kind == "random":
        return random_trees(n, count, 0 if seed is None else seed)
    raise ValueError(f"unknown tree kind {kind!r}")


# -- q-Laplacian and matching weights ------------------------------------


def q_laplacian(tree: Tree) -> PolyMatrix:
    deg = tree.degrees()
    n = tree.n
    rows = [[RatPoly.zero() for _ in range(n)] for _ in range(n)]
    for v in range(1, n + 1):
        rows[v - 1][v - 1] = RatPoly((1, 0, deg[v] - 1))
    minus_q = RatPoly((0, -1))
    for u, v in tree.edges:
        rows[u - 1][v - 1] = minus_q
        rows[v - 1][u - 1] = minus_q
    return PolyMatrix(tuple(tuple(row) for row in rows))


def matching_weight_arrays(tree: Tree) -> list[list[int]]:
    """Integer coefficient arrays of c_j in t = q^2, j = 0..floor(n/2).

    Matchings are enumerated by include/exclude recursion over the edge
    list with endpoint blocking.  Weight products over the unmatched
    vertices are cached by the multiset of their degree factors, which
    collapses most of the repeated work in whole-tree sweeps.
    """
    n = tree.n
    deg = tree.degrees()
    edges = tree.edges
    half = n // 2
    acc: list[list[int]] = [[0] * (n + 1) for _ in range(half + 1)]
    cache: dict[tuple[int, ...], list[int]] = {}

    def unmatched_product(mask: int) -> list[int]:
        factors = tuple(sorted(deg[v] - 1 for v in range(1, n + 1)
                               if not mask & (1 << v)))
        poly = cache.get(factors)
        if poly is None:
            poly = [1]
            for f in factors:
                poly = conv(poly, [1, f])
            cache[factors] = poly
        return poly

    def rec(idx: int, mask: int, size: int):
        if idx == len(edges):
            row = acc[size]
            for p, coeff in enumerate(unmatched_product(mask)):
                row[size + p] += coeff
            return
        rec(idx + 1, mask, size)
        u, v = edges[idx]
        bits = (1 << u) | (1 << v)
        if not mask & bits:
            rec(idx + 1, mask | bits, size + 1)

    rec(0, 0, 0)
    for row in acc:
        while len(row) > 1 and row[-1] == 0:
            row.pop()
    return acc


def matching_weights(tree: Tree) -> tuple[RatPoly, ...]:
    """c_j(q) for j = 0..floor(n/2), as exact polynomials in q."""
    return tuple(from_t(arr) for arr in matching_weight_arrays(tree))


# -- tree file format -----------------------------------------------------


def parse_tree_file(text: str) -> Tree:
    """Plain-text format: first line n, then one edge "u v" per line."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty tree file")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return Tree(n, tuple(edges))
