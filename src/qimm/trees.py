"""Labeled trees, the Pruefer codec, generators, and q-Laplacian data.

Vertices are labeled 1..n throughout, matching the Pruefer convention.
The q-Laplacian of a graph is I + (D - I) q^2 - q A: diagonal entry
1 + (deg(v) - 1) q^2 at vertex v, -q on edges, 0 elsewhere.  q_laplacian
holds each entry as an integer q-coefficient tuple, the form the
immanant oracle expands.

Matching weights: only permutations that are involutions along a matching
of the tree contribute to an immanant of a tree matrix (any longer
permutation cycle would need a cycle in the tree), so the entry-product
data of the whole symmetric group collapses to

    c_j(q) = sum over size-j matchings M of
             q^(2j) * prod_{v unmatched} (1 + (deg(v) - 1) q^2).

These are integer polynomials in t = q^2.  matching_weight_arrays gets
all of them at once, without listing matchings, from an iterative
rooted-tree DP over a bivariate polynomial in (x, t), x marking the
matching size, held as one Python int by Kronecker substitution
(t = 2^b, x = 2^(b(n+1))).  Every coefficient is a nonnegative integer
bounded by the DP's value at t = x = 1, which fixes b; see its
docstring.  Time is polynomial in n and no step recurses.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from .ratpoly import RatPoly, from_t

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
    """Square grid of polynomials, each an integer coefficient tuple in
    ascending power order; the zero polynomial is ()."""

    entries: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, rc: tuple[int, int]) -> tuple[int, ...]:
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


# -- q-Laplacian and matching weights ------------------------------------


def q_laplacian(tree: Tree) -> PolyMatrix:
    """L_q as integer q-coefficient tuples: (1, 0, deg(v) - 1) on the
    diagonal (a leaf's trailing zeros stripped to (1,)), (0, -1) on
    edges and () elsewhere."""
    deg = tree.degrees()
    n = tree.n
    rows = [[()] * n for _ in range(n)]
    for v in range(1, n + 1):
        rows[v - 1][v - 1] = (1, 0, deg[v] - 1) if deg[v] != 1 else (1,)
    for u, v in tree.edges:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = (0, -1)
    return PolyMatrix(tuple(map(tuple, rows)))


def _fold_matchings(order: Sequence[int], parent: Sequence[int],
                    deg: Sequence[int], shift_t: int, shift_xt: int) -> int:
    """P(x, t) = sum over matchings M of x^|M| t^|M| prod_{v unmatched}
    (1 + (deg(v) - 1) t), at t = 2^shift_t and x t = 2^shift_xt.

    The children are folded into their parents in reverse BFS `order`.
    Per vertex v, `free[v]` sums the matchings of the folded part of v's
    subtree that leave v unmatched (v's own factor not yet applied) and
    `matched[v]` those that match v to a child.  A finished child c adds
    total = free[c] (1 + (deg(c) - 1) t) + matched[c] when its parent
    edge is unused and free[c] x t when that edge is matched.
    """
    free = [1] * len(deg)
    matched = [0] * len(deg)
    total = 1
    for v in reversed(order):
        u = free[v]
        total = u + (deg[v] - 1) * (u << shift_t) + matched[v]
        p = parent[v]
        if p:
            up = free[p]
            matched[p] = matched[p] * total + (up * u << shift_xt)
            free[p] = up * total
    return total


def matching_weight_arrays(tree: Tree) -> list[list[int]]:
    """Integer coefficient arrays of c_j in t = q^2, j = 0..floor(n/2).

    c_j is the coefficient of x^j in the bivariate P(x, t) of
    `_fold_matchings`, an iterative rooted-tree DP (the matchings-
    polynomial recursion; Godsil, Algebraic Combinatorics, 1993, ch. 1)
    rooted at vertex 1 and evaluated once at a Kronecker point: t = 2^b,
    x = 2^(b(n+1)).  The t-degree of c_j is at most n - j <= n, so the
    n + 1 slots of one x power never reach the next.

    Exactness: for n >= 2 every degree is at least 1, so every factor
    1 + (deg(v) - 1) t, and with it every coefficient of P, is a
    nonnegative integer.  Those coefficients sum to P(1, 1), the same DP
    at t = x = 1, so each is below 2^b for b = P(1, 1).bit_length() + 1;
    b is rounded up to whole bytes, and the packed integer decodes slot
    by slot from its little-endian bytes, in time linear in its size.
    n = 1 has the single weight 1 - t, whose negative coefficient the
    packing cannot carry, so it is returned directly.
    """
    n = tree.n
    if n == 1:
        return [[1, -1]]
    adj = tree.adjacency()
    parent = [0] * (n + 1)
    order = [1]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    deg = tree.degrees()
    width = (_fold_matchings(order, parent, deg, 0, 0).bit_length() + 8) // 8
    b = 8 * width
    packed = _fold_matchings(order, parent, deg, b, b * (n + 2))
    stride = width * (n + 1)
    data = packed.to_bytes(stride * (n // 2 + 1), "little")
    rows = []
    for start in range(0, len(data), stride):
        end = start + len(data[start:start + stride].rstrip(b"\0"))
        rows.append([int.from_bytes(data[i:i + width], "little")
                     for i in range(start, end, width)] or [0])
    return rows


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
