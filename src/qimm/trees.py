"""Labeled trees, the Pruefer codec, generators, and q-Laplacian data.

Vertices are labeled 1..n throughout, matching the Pruefer convention.
The q-Laplacian of a graph is I + (D - I) q^2 - q A: diagonal entry
1 + (deg(v) - 1) q^2 at vertex v, -q on edges, 0 elsewhere.  q_laplacian
holds each entry as an integer q-coefficient tuple, the form the
immanant oracle expands.

Isomorphism classes: free_trees(n) lists one tree per class, each with
its automorphism count |Aut T|.  The classes grow by leaf augmentation
and are told apart by center-rooted AHU codes, and every call checks
Cayley's count sum n!/|Aut T| = n^(n-2), the coverage check Wright,
Richmond, Odlyzko and McKay use for free-tree generation (SIAM J.
Comput., 1986).

Matching weights: only permutations that are involutions along a matching
of the tree contribute to an immanant of a tree matrix (any longer
permutation cycle would need a cycle in the tree), so the entry-product
data of the whole symmetric group collapses to

    c_j(q) = sum over size-j matchings M of
             q^(2j) * prod_{v unmatched} (1 + (deg(v) - 1) q^2).

These are integer polynomials in t = q^2, nonzero exactly for j <= nu,
the tree's matching number (for n >= 2 each term is positive at t = 1).
matching_weight_arrays gets c_0..c_nu at once, and no array past c_nu,
without listing matchings, from an iterative rooted-tree DP over a
bivariate polynomial in (x, t), x marking the matching size, held as one
Python int by Kronecker substitution (t = 2^b, x = 2^(b(n+1))).  Every
coefficient is a nonnegative integer bounded by the DP's value at
t = x = 1, which fixes b; see its docstring.  Time is polynomial in n
and no step recurses.  The DP folds along the BFS that validated the
tree (Tree.order and Tree.parent), so each tree is walked once.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from math import factorial
from typing import Iterator, Sequence

from .ratpoly import RatPoly, from_t

ALL_TREES_MAX_N = 9
# free_trees(15) lists 7,741 classes in about 3-4 s on a 2-vCPU host; the
# cost grows about threefold per vertex, so larger n is refused up front
FREE_TREES_MAX_N = 15
_GROWN = [[((0, 0, 1), 2)]]  # free_trees' (parent, |Aut|) on m = 2, 3, ...


@dataclass(frozen=True)
class Tree:
    """Labeled tree on vertices 1..n given by its edge list."""

    n: int
    edges: tuple[tuple[int, int], ...]
    # the validating BFS from vertex 1, kept for the matching-weight DP
    order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    parent: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        # BFS from vertex 1; a set parent marks a visited vertex.  n-1
        # edges that reach every vertex certify a tree (a cycle among them
        # would leave a vertex unreached)
        adj = self.adjacency()
        parent = [0] * (self.n + 1)
        order = [1]
        for v in order:
            for w in adj[v]:
                if w != 1 and not parent[w]:
                    parent[w] = v
                    order.append(w)
        if len(order) != self.n:
            raise ValueError("edge list is not connected")
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "parent", tuple(parent))

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


def _center_code(parent: Sequence[int], codes: dict) -> tuple[tuple, int]:
    """Isomorphism code and automorphism count of the tree on 1..m whose
    vertex v >= 2 hangs from parent[v] < v.

    The code is the AHU code (Aho, Hopcroft, Ullman, 1974) rooted at the
    center: leaves are peeled layer by layer down to one or two center
    vertices, and the tree is folded toward them in reverse BFS order.  A
    vertex's code is the id `codes` interns for the sorted codes of its
    children, and its automorphism count is the product of its
    children's counts and of k! for each child code repeated k times.
    Two centers are joined by the edge between them: the code is the
    sorted pair of the two halves' codes, and the counts multiply, twice
    over when the halves are alike.
    """
    m = len(parent) - 1
    adj: list[list[int]] = [[] for _ in range(m + 1)]
    for v in range(2, m + 1):
        adj[v].append(parent[v])
        adj[parent[v]].append(v)
    deg = [len(ws) for ws in adj]
    layer = [v for v in range(1, m + 1) if deg[v] == 1]
    left = m
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    peeled.append(w)
        layer = peeled
    up = [0] * (m + 1)
    for c in layer:
        up[c] = -1
    order = list(layer)
    for v in order:
        for w in adj[v]:
            if not up[w]:
                up[w] = v
                order.append(w)
    kids: list[list[int]] = [[] for _ in range(m + 1)]
    aut = [1] * (m + 1)
    code = [0] * (m + 1)
    for v in reversed(order):
        key = tuple(sorted(kids[v]))
        code[v] = codes.setdefault(key, len(codes))
        for k in Counter(key).values():
            aut[v] *= factorial(k)
        p = up[v]
        if p > 0:
            kids[p].append(code[v])
            aut[p] *= aut[v]
    if len(layer) == 1:
        return (code[layer[0]],), aut[layer[0]]
    a, b = layer
    return (tuple(sorted((code[a], code[b]))),
            aut[a] * aut[b] * (1 + (code[a] == code[b])))


def free_trees(n: int) -> list[tuple[Tree, int]]:
    """One tree per isomorphism class on n vertices, with |Aut T|.

    The classes on m vertices, grown once per process, come from those on
    m - 1 by adding leaf m to every vertex, deduplicated by `_center_code`;
    no step recurses.  Every call certifies a fresh list by Cayley's count:
    sum n!/|Aut T| = n^(n-2), each labeled tree covered once.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > FREE_TREES_MAX_N:
        raise ValueError(f"tree classes capped at n <= {FREE_TREES_MAX_N}")
    for m in range(len(_GROWN) + 2, n + 1):
        codes: dict[tuple[int, ...], int] = {}
        grown: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        for parent, _ in _GROWN[-1]:
            for v in range(1, m):
                key, aut = _center_code(parent + (v,), codes)
                grown.setdefault(key, (parent + (v,), aut))
        _GROWN.append(list(grown.values()))
    out = [(Tree(n, tuple((parent[v], v) for v in range(2, n + 1))), aut)
           for parent, aut in _GROWN[n - 2]]
    covered = sum(factorial(n) // aut for _, aut in out)
    if covered != n ** (n - 2):
        raise ArithmeticError(f"{len(out)} tree classes on {n} vertices "
                              f"cover {covered} labeled trees, not "
                              f"{n}^{n - 2}")
    return out


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
    edge is unused and free[c] x t when that edge is matched.  A folded
    vertex's two integers are released, so only the unfinished frontier
    is held.
    """
    free = [1] * len(deg)
    matched = [0] * len(deg)
    total = 1
    for v in reversed(order):
        u = free[v]
        total = u + (deg[v] - 1) * (u << shift_t) + matched[v]
        free[v] = matched[v] = 0
        p = parent[v]
        if p:
            up = free[p]
            matched[p] = matched[p] * total + (up * u << shift_xt)
            free[p] = up * total
    return total


def matching_weight_arrays(tree: Tree) -> list[list[int]]:
    """Integer coefficient arrays of c_j in t = q^2, j = 0..nu, where nu
    is the tree's matching number.

    c_j is the coefficient of x^j in the bivariate P(x, t) of
    `_fold_matchings`, an iterative rooted-tree DP (the matchings-
    polynomial recursion; Godsil, Algebraic Combinatorics, 1993, ch. 1)
    along the tree's BFS from vertex 1 (Tree.order, Tree.parent) and
    evaluated once at a Kronecker point: t = 2^b, x = 2^(b(n+1)).  The
    t-degree of c_j is at most n - j <= n, so the n + 1 slots of one x
    power never reach the next.

    Exactness: for n >= 2 every degree is at least 1, so every factor
    1 + (deg(v) - 1) t, and with it every coefficient of P, is a
    nonnegative integer.  Those coefficients sum to P(1, 1), the same DP
    at t = x = 1, so each is below 2^b for b = P(1, 1).bit_length() + 1;
    b is rounded up to whole bytes, and the packed integer decodes slot
    by slot from its little-endian bytes, in time linear in its size.
    Its top byte lies in the slots of x^nu, so decoding only the bytes
    it holds ends the rows at c_nu, each row trimmed of trailing zeros.
    n = 1 has the single weight 1 - t, whose negative coefficient the
    packing cannot carry, so it is returned directly.
    """
    n = tree.n
    if n == 1:
        return [[1, -1]]
    deg = tree.degrees()
    order, parent = tree.order, tree.parent
    width = (_fold_matchings(order, parent, deg, 0, 0).bit_length() + 8) // 8
    b = 8 * width
    packed = _fold_matchings(order, parent, deg, b, b * (n + 2))
    stride = width * (n + 1)
    data = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    rows = []
    for start in range(0, len(data), stride):
        end = start + len(data[start:start + stride].rstrip(b"\0"))
        rows.append([int.from_bytes(data[i:i + width], "little")
                     for i in range(start, end, width)])
    return rows


def matching_weights(tree: Tree) -> tuple[RatPoly, ...]:
    """c_j(q) for j = 0..floor(n/2), as exact polynomials in q: those
    above the matching number are zero."""
    rows = matching_weight_arrays(tree)
    return tuple(from_t(arr)
                 for arr in rows + [[]] * (tree.n // 2 + 1 - len(rows)))


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
