"""Seeded random generators for datums and graphs.

Every generator takes an explicit ``random.Random`` so suites and shipped
fixtures are reproducible from a recorded seed.  Entries are kept small
(|entry| <= 9) so the randomized acceptance suites run at desk scale.
"""

from __future__ import annotations

from random import Random

from . import intmat
from .curves import DualGraph, GraphEdge, GraphVertex
from .degeneration import Branch, DegenDatum, validate
from .lattice import LatticeMap

ENTRY_BOUND = 9


def random_unimodular(rng: Random, n: int) -> list[list[int]]:
    """Random unimodular matrix with entries bounded by ENTRY_BOUND."""
    if n == 0:
        return []
    while True:
        m = intmat.identity(n)
        for _ in range(3 * n):
            op = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if op == 0 and i != j:
                c = rng.choice([-2, -1, 1, 2])
                for col in range(n):
                    m[i][col] += c * m[j][col]
            elif op == 1 and i != j:
                m[i], m[j] = m[j], m[i]
            elif op == 2:
                m[i] = [-v for v in m[i]]
        if all(abs(v) <= ENTRY_BOUND for row in m for v in row):
            return m


def random_spd(rng: Random, n: int) -> list[list[int]]:
    """Random symmetric positive definite integer matrix, small entries."""
    if n == 0:
        return []
    while True:
        r = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        if intmat.bareiss_det(r, n) == 0:
            continue
        rt = intmat.transpose(r, n, n)
        m = intmat.matmul(rt, n, n, r, n, n)
        for i in range(n):
            m[i][i] += rng.randint(0, 2)
        if all(abs(v) <= ENTRY_BOUND for row in m for v in row):
            return m


def random_datum(rng: Random, max_mu: int = 4, max_n: int = 3,
                 residue_char: int = 0, min_n: int = 0) -> DegenDatum:
    """Random valid principally polarized datum; toric additivity is not forced."""
    while True:
        n = rng.randint(min_n, max_n)
        if n == 0:
            return DegenDatum("random", rng.randint(0, 2), residue_char, 0, ())
        branch_mus = [rng.randint(1, max(1, max_mu - 1)) for _ in range(n)]
        total = sum(branch_mus)
        mu = rng.randint(1, min(max_mu, total))
        rows = [[rng.randint(-2, 2) for _ in range(mu)] for _ in range(total)]
        stacked = LatticeMap.from_rows(rows, mu)
        if not stacked.is_injective():
            continue
        blocks = []
        pos = 0
        ok = True
        for mu_i in branch_mus:
            block = LatticeMap.from_rows(rows[pos:pos + mu_i], mu)
            if not block.is_surjective():
                ok = False
                break
            blocks.append(block)
            pos += mu_i
        if not ok:
            continue
        branches = tuple(
            Branch(f"D{i + 1}", LatticeMap.from_rows(random_spd(rng, mu_i), mu_i), blocks[i])
            for i, mu_i in enumerate(branch_mus))
        datum = DegenDatum("random", rng.randint(0, 2), residue_char, mu, branches)
        if not validate(datum):
            return datum


def random_ta_datum(rng: Random, max_mu: int = 4, max_n: int = 3,
                    residue_char: int = 0, min_n: int = 0) -> DegenDatum:
    """Random toric-additive datum: the purity matrix is unimodular by design."""
    n = rng.randint(min_n, max_n)
    if n == 0:
        return DegenDatum("random-ta", rng.randint(0, 2), residue_char, 0, ())
    while True:
        branch_mus = [rng.randint(1, 2) for _ in range(n)]
        mu = sum(branch_mus)
        if mu <= max_mu:
            break
    purity = random_unimodular(rng, mu)
    branches = []
    pos = 0
    for i, mu_i in enumerate(branch_mus):
        sp = LatticeMap.from_rows(purity[pos:pos + mu_i], mu)
        pairing = LatticeMap.from_rows(random_spd(rng, mu_i), mu_i)
        branches.append(Branch(f"D{i + 1}", pairing, sp))
        pos += mu_i
    return DegenDatum("random-ta", rng.randint(0, 2), residue_char, mu, tuple(branches))


def random_polarized_datum(rng: Random, max_mu: int = 3, max_n: int = 3,
                           residue_char: int = 0, min_n: int = 0,
                           ta: bool = False) -> DegenDatum:
    """Datum with an explicit dual side and a non-identity polarization.

    The dual side is the unimodular twist sp'_i = W_i ∘ sp_i ∘ W^{-1} with
    polarizations lambda = W, lambda_i = W_i, and pairings S_i ∘ W_i^{-1} for
    random SPD S_i, so every polarization square commutes by construction.
    """
    base = random_ta_datum(rng, max_mu, max_n, residue_char, min_n) if ta \
        else random_datum(rng, max_mu, max_n, residue_char, min_n)
    if base.n == 0:
        return base
    mu = base.mu
    w = random_unimodular(rng, mu)
    w_inv = _unimodular_inverse(w, mu)
    branch_ws = [random_unimodular(rng, b.rank) for b in base.branches]
    dual_sps = []
    branches = []
    pols = []
    for b, wi in zip(base.branches, branch_ws):
        k = b.rank
        wi_inv = _unimodular_inverse(wi, k)
        sp_rows = intmat.matmul(
            intmat.matmul(wi, k, k, b.specialization.entries, k, mu), k, mu,
            w_inv, mu, mu)
        dual_sps.append(LatticeMap.from_rows(sp_rows, mu))
        s = random_spd(rng, k)
        pairing_rows = intmat.matmul(s, k, k, wi_inv, k, k)
        branches.append(Branch(b.name, LatticeMap.from_rows(pairing_rows, k), b.specialization))
        pols.append(LatticeMap.from_rows(wi, k))
    return DegenDatum(
        name=base.name + "-polarized",
        abelian_rank=base.abelian_rank,
        residue_char=base.residue_char,
        mu=mu,
        branches=tuple(branches),
        dual_mu=mu,
        dual_specializations=tuple(dual_sps),
        polarization=LatticeMap.from_rows(w, mu),
        branch_polarizations=tuple(pols),
    )


def _unimodular_inverse(m: list[list[int]], n: int) -> list[list[int]]:
    det, adj = intmat.solve_rational(m, n, intmat.identity(n))   # det = ±1: m^-1 = det·adj
    return [[det * v for v in row] for row in adj]


def random_graph(rng: Random, max_edges: int = 8, max_branches: int = 3,
                 residue_char: int = 0) -> DualGraph:
    """Random connected labelled multigraph (loops allowed)."""
    n_branches = rng.randint(1, max_branches)
    num_v = rng.randint(1, 4)
    vertices = tuple(GraphVertex(f"v{i}", rng.randint(0, 2)) for i in range(num_v))
    edges: list[GraphEdge] = []
    for i in range(1, num_v):
        j = rng.randrange(i)
        edges.append(GraphEdge((f"v{j}", f"v{i}"), _random_label(rng, n_branches)))
    extra = rng.randint(1 if num_v == 1 else 0, max(0, max_edges - len(edges)))
    for _ in range(extra):
        u = rng.randrange(num_v)
        v = rng.randrange(num_v)
        edges.append(GraphEdge((f"v{u}", f"v{v}"), _random_label(rng, n_branches)))
    if not edges:
        edges.append(GraphEdge(("v0", "v0"), _random_label(rng, n_branches)))
    return DualGraph("random-graph", residue_char, n_branches, vertices, tuple(edges))


def _random_label(rng: Random, n_branches: int) -> tuple[int, ...]:
    while True:
        label = tuple(rng.randint(0, 3) for _ in range(n_branches))
        if any(label):
            return label
