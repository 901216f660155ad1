"""Labelled dual graphs of nodal curves and the jacobian degeneration datum.

A vertex carries a geometric genus; an edge is a node whose local equation
involves the boundary branches with the multiplicities in its label.  Over
branch i the nodes with multiplicity zero at i are smoothed, so the branch
graph contracts those edges (a smoothed loop just disappears, trading a cycle
for abelian rank).  The character lattices are the graph first homology
groups, specializations are the contraction surjections, and the pairing on
branch i is the multiplicity-weighted intersection form on cycles.

Cycle bases are fundamental cycles of a spanning tree chosen in lexicographic
edge order, so all outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degeneration import Branch, DegenDatum, analyze
from .errors import InputError
from .lattice import LatticeMap


@dataclass(frozen=True)
class GraphVertex:
    name: str
    genus: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise InputError(f"vertex '{self.name}': genus must be non-negative")


@dataclass(frozen=True)
class GraphEdge:
    ends: tuple[str, str]
    label: tuple[int, ...]     # multiplicity per branch, not identically zero

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.label):
            raise InputError(f"edge {self.ends}: multiplicities must be non-negative")
        if not any(self.label):
            raise InputError(f"edge {self.ends}: label is identically zero")


@dataclass(frozen=True)
class DualGraph:
    name: str
    residue_char: int
    n_branches: int
    vertices: tuple[GraphVertex, ...]
    edges: tuple[GraphEdge, ...]

    def __post_init__(self) -> None:
        if self.n_branches < 1:
            raise InputError("a dual graph needs at least one boundary branch")
        names = [v.name for v in self.vertices]
        if len(set(names)) != len(names):
            raise InputError("duplicate vertex names")
        if not self.edges:
            raise InputError("a dual graph needs at least one edge (node)")
        known = set(names)
        for e in self.edges:
            if e.ends[0] not in known or e.ends[1] not in known:
                raise InputError(f"edge {e.ends} uses an unknown vertex")
            if len(e.label) != self.n_branches:
                raise InputError(
                    f"edge {e.ends}: label has {len(e.label)} entries, expected {self.n_branches}")


@dataclass(frozen=True)
class CurveReport:
    datum: DegenDatum
    torsion_free: bool
    equivalence_holds: bool      # weak toric additivity iff toric additivity
    falsifications: tuple[str, ...]


def _edge_order(graph: DualGraph) -> list[int]:
    """Deterministic processing order: lexicographic on endpoints, then position."""
    def key(k: int) -> tuple[str, str, int]:
        u, v = graph.edges[k].ends
        lo, hi = sorted((u, v))
        return (lo, hi, k)
    return sorted(range(len(graph.edges)), key=key)


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _cycle_basis(num_vertices: int, ends: list[tuple[int, int]],
                 order: list[int]) -> tuple[list[list[int]], list[int]]:
    """Fundamental cycles of the spanning tree, as vectors over all edges.

    Edge k is oriented ends[k][0] -> ends[k][1]; basis vector t has +1 at its
    own cotree edge and no other basis vector touches that edge, so the
    returned cotree positions read coordinates off any cycle directly.
    """
    uf = _UnionFind(num_vertices)
    tree: list[int] = []
    cotree: list[int] = []
    for k in order:
        u, v = ends[k]
        if u != v and uf.union(u, v):
            tree.append(k)
        else:
            cotree.append(k)
    # root each tree of the spanning forest once: the parent, edge and depth
    # of every vertex, with sign +1 where the edge points from the parent
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(num_vertices)]
    for k in tree:
        u, v = ends[k]
        adjacency[u].append((v, k, 1))
        adjacency[v].append((u, k, -1))
    up: list[tuple[int, int, int] | None] = [None] * num_vertices   # None at a root
    depth = [-1] * num_vertices
    for root in range(num_vertices):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            cur = stack.pop()
            for nxt, k, sign in adjacency[cur]:
                if depth[nxt] < 0:
                    depth[nxt] = depth[cur] + 1
                    up[nxt] = (cur, k, sign)
                    stack.append(nxt)
    basis = []
    for k in cotree:
        u, v = ends[k]
        vec = [0] * len(ends)
        vec[k] = 1
        # close the cycle along the unique tree path from v back to u: climb
        # from the deeper end until the two ends meet
        while u != v:
            if depth[u] >= depth[v]:
                u, edge_idx, sign = up[u]
                vec[edge_idx] += sign
            else:
                v, edge_idx, sign = up[v]
                vec[edge_idx] -= sign
        basis.append(vec)
    return basis, cotree


def graph_to_datum(graph: DualGraph) -> DegenDatum:
    """Jacobian degeneration datum of the labelled graph (principally polarized)."""
    index = {v.name: i for i, v in enumerate(graph.vertices)}
    ends = [(index[e.ends[0]], index[e.ends[1]]) for e in graph.edges]
    order = _edge_order(graph)
    position = {k: i for i, k in enumerate(order)}
    closed_basis, _ = _cycle_basis(len(graph.vertices), ends, order)
    mu = len(closed_basis)
    # a spanning forest with c trees leaves E - V + c cycles
    if mu != len(graph.edges) - len(graph.vertices) + 1:
        raise InputError("dual graph is not connected")

    branches = []
    for br in range(graph.n_branches):
        surviving = [k for k, e in enumerate(graph.edges) if e.label[br] > 0]
        # contract the other edges: merge their endpoints (loops just vanish)
        uf = _UnionFind(len(graph.vertices))
        for k, e in enumerate(graph.edges):
            if e.label[br] == 0:
                uf.union(ends[k][0], ends[k][1])
        # a merged vertex keeps its root's id; an id no edge uses is a lone tree
        merged_ends = [(uf.find(ends[k][0]), uf.find(ends[k][1])) for k in surviving]
        surviving_order = sorted(range(len(surviving)), key=lambda t: position[surviving[t]])
        branch_basis, cotree = _cycle_basis(len(graph.vertices), merged_ends, surviving_order)
        mu_i = len(branch_basis)
        # a closed cycle restricts to a cycle of the contracted graph, which is
        # the sum of the fundamental cycles weighted by its own cotree entries
        sp_rows = [[z[surviving[t]] for z in closed_basis] for t in cotree]
        # the weighted intersection form, summed edge by edge over the cycles
        # through each edge
        through: list[list[tuple[int, int]]] = [[] for _ in surviving]
        for a, z in enumerate(branch_basis):
            for t, c in enumerate(z):
                if c:
                    through[t].append((a, c))
        pairing_rows = [[0] * mu_i for _ in range(mu_i)]
        for k, cycles in zip(surviving, through):
            w = graph.edges[k].label[br]
            for a, ca in cycles:
                row = pairing_rows[a]
                for b, cb in cycles:
                    row[b] += w * ca * cb
        branches.append(Branch(
            name=f"D{br + 1}",
            pairing=LatticeMap.from_rows(pairing_rows, mu_i),
            specialization=LatticeMap.from_rows(sp_rows, mu),
        ))
    return DegenDatum(
        name=graph.name,
        abelian_rank=sum(v.genus for v in graph.vertices),
        residue_char=graph.residue_char,
        mu=mu,
        branches=tuple(branches),
    )


def curve_equivalences(graph: DualGraph) -> CurveReport:
    """Verdicts of the jacobian datum plus the curve-specific consistency checks.

    For jacobians the purity cokernel is torsion-free and weak toric
    additivity coincides with toric additivity; a violation would contradict
    the theory, so it is reported as a falsification, never suppressed.
    """
    datum = graph_to_datum(graph)
    verdict = analyze(datum)
    torsion_free = datum.purity_cokernel[0].is_trivial
    equivalence = verdict.toric_additive == verdict.weakly_toric_additive
    falsifications = []
    if not torsion_free:
        falsifications.append(
            f"purity cokernel has torsion {datum.purity_cokernel[0]} on graph '{graph.name}': "
            f"{_graph_signature(graph)}")
    if not equivalence:
        falsifications.append(
            f"weak toric additivity disagrees with toric additivity on graph "
            f"'{graph.name}': {_graph_signature(graph)}")
    return CurveReport(datum, torsion_free, equivalence, tuple(falsifications))


def _graph_signature(graph: DualGraph) -> str:
    verts = ", ".join(f"{v.name}(g={v.genus})" for v in graph.vertices)
    edges = ", ".join(f"{e.ends[0]}-{e.ends[1]}{list(e.label)}" for e in graph.edges)
    return f"vertices [{verts}]; edges [{edges}]"
