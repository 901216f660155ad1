"""Dual graphs of nodal curves: homology lattices and curve equivalences."""

from __future__ import annotations

import random

import pytest

from degenkit import curves
from degenkit.curves import (
    DualGraph,
    GraphEdge,
    GraphVertex,
    curve_equivalences,
    graph_to_datum,
)
from degenkit.degeneration import analyze, validate
from degenkit.errors import InputError
from degenkit.generators import random_graph
from degenkit.monodromy import TraitProfile, compose_trait

from oracles import component_group, determinant
from test_intmat import wall_clock_budget


def graph(vertices, edges, n_branches, name="g"):
    return DualGraph(name, 0, n_branches,
                     tuple(GraphVertex(n, g) for n, g in vertices),
                     tuple(GraphEdge(ends, tuple(label)) for ends, label in edges))


TWO_LOOPS = graph([("v0", 0)], [(("v0", "v0"), (1, 0)), (("v0", "v0"), (0, 1))], 2)
SHARED_LOOP = graph([("v0", 0)], [(("v0", "v0"), (1, 1))], 2)
TWO_VERTEX_TREE = graph([("v0", 1), ("v1", 1)], [(("v0", "v1"), (1,))], 1)


def chord_graph(num_vertices):
    """The cycle v0 ... v(V-1) with the chords v_i -> v_(7i+3 mod V), one branch."""
    names = [f"v{i}" for i in range(num_vertices)]
    ends = [(names[i], names[(i + 1) % num_vertices]) for i in range(num_vertices)]
    ends += [(names[i], names[(7 * i + 3) % num_vertices]) for i in range(num_vertices)]
    return graph([(n, 0) for n in names], [(e, (1,)) for e in ends], 1, name="chords")


def branch_cycles(g, br):
    """(surviving edges, fundamental cycles, cotree) of branch br's contracted
    graph, in graph_to_datum's edge order."""
    index = {v.name: i for i, v in enumerate(g.vertices)}
    ends = [(index[e.ends[0]], index[e.ends[1]]) for e in g.edges]
    order = curves._edge_order(g)
    surviving = [k for k, e in enumerate(g.edges) if e.label[br]]
    uf = curves._UnionFind(len(g.vertices))
    for k, e in enumerate(g.edges):
        if not e.label[br]:
            uf.union(*ends[k])
    merged = [(uf.find(ends[k][0]), uf.find(ends[k][1])) for k in surviving]
    sub_order = sorted(range(len(surviving)), key=lambda t: order.index(surviving[t]))
    basis, cotree = curves._cycle_basis(len(g.vertices), merged, sub_order)
    return surviving, basis, cotree


def dense_pairing(g, br, surviving, za, zb):
    """The intersection form on two cycles, summed over every surviving edge."""
    return sum(g.edges[k].label[br] * a * b for k, a, b in zip(surviving, za, zb))


class TestGraphToDatum:
    def test_two_loops_is_ta(self):
        datum = graph_to_datum(TWO_LOOPS)
        assert (datum.mu, datum.branch_mus, sum(datum.branch_mus) - datum.mu) == (2, (1, 1), 0)
        assert analyze(datum).toric_additive

    def test_shared_loop_not_weak(self):
        datum = graph_to_datum(SHARED_LOOP)
        assert (datum.mu, datum.branch_mus, sum(datum.branch_mus) - datum.mu) == (1, (1, 1), 1)
        assert not analyze(datum).weakly_toric_additive

    def test_tree_with_genus(self):
        datum = graph_to_datum(TWO_VERTEX_TREE)
        assert datum.mu == 0
        assert datum.abelian_rank == 2
        assert analyze(datum).toric_additive

    def test_datums_validate(self):
        rng = random.Random(53)
        for _ in range(40):
            datum = graph_to_datum(random_graph(rng))
            assert validate(datum) == []

    def test_restricted_cycles_recombine_from_cotree_entries(self):
        # graph_to_datum reads sp_i off the cotree entries of each closed cycle
        # and checks nothing: a cycle of the contracted branch graph is the sum
        # of its fundamental cycles weighted by its own cotree entries
        rng = random.Random(59)
        recombined = 0
        for _ in range(300):
            g = random_graph(rng, max_edges=10)
            index = {v.name: i for i, v in enumerate(g.vertices)}
            ends = [(index[e.ends[0]], index[e.ends[1]]) for e in g.edges]
            closed, _ = curves._cycle_basis(len(g.vertices), ends, curves._edge_order(g))
            datum = graph_to_datum(g)
            for br, branch in enumerate(datum.branches):
                surviving, basis, cotree = branch_cycles(g, br)
                # the same branch basis as graph_to_datum: the same pairing
                assert branch.pairing.entries == tuple(
                    tuple(dense_pairing(g, br, surviving, za, zb) for zb in basis)
                    for za in basis)
                sp = branch.specialization.entries
                for c, z in enumerate(closed):
                    restricted = [z[k] for k in surviving]
                    coords = [row[c] for row in sp]
                    assert coords == [restricted[t] for t in cotree]
                    assert [sum(a * b[pos] for a, b in zip(coords, basis))
                            for pos in range(len(surviving))] == restricted
                    recombined += any(restricted)
        assert recombined > 300

    def test_pairing_matches_the_dense_formula(self):
        # graph_to_datum sums the pairing edge by edge over the cycles through
        # each edge; here every pair of cycles is summed over every edge
        rng = random.Random(61)
        pairs = 0
        for _ in range(150):
            g = random_graph(rng, max_edges=16, max_branches=4)
            for br, branch in enumerate(graph_to_datum(g).branches):
                surviving, basis, _ = branch_cycles(g, br)
                assert branch.pairing.entries == tuple(
                    tuple(dense_pairing(g, br, surviving, za, zb) for zb in basis)
                    for za in basis)
                pairs += len(basis) ** 2
        assert pairs > 1000, pairs

    def test_chord_graph_of_1600_edges_within_budget(self):
        # the pairing summed over all E edges for every pair of cycles, and the
        # branch edges sorted by a list.index key, took about 57 s on a 2-vCPU
        # container; edge by edge it takes well under a second
        g = chord_graph(800)
        with wall_clock_budget(5):
            datum = graph_to_datum(g)
        assert datum.mu == 1600 - 800 + 1
        pairing = datum.branches[0].pairing.entries
        surviving, basis, _ = branch_cycles(g, 0)
        # a fundamental cycle has coefficients ±1, so its square is its length
        assert [pairing[a][a] for a in range(datum.mu)] == [sum(map(abs, z)) for z in basis]
        rng = random.Random(67)
        for _ in range(200):
            a, b = rng.randrange(datum.mu), rng.randrange(datum.mu)
            assert pairing[a][b] == pairing[b][a] == \
                dense_pairing(g, 0, surviving, basis[a], basis[b])

    def test_rejects_disconnected(self):
        g = graph([("v0", 0), ("v1", 0)],
                  [(("v0", "v0"), (1,)), (("v1", "v1"), (1,))], 1)
        with pytest.raises(InputError, match="connected"):
            graph_to_datum(g)
        # connected exactly when the cycle rank is E - V + 1, also where a
        # vertex touches no edge
        for edges in ([(("v0", "v0"), (1,))],
                      [(("v0", "v1"), (1,)), (("v0", "v1"), (1,))],
                      [(("v0", "v1"), (1,)), (("v2", "v2"), (1,))]):
            g = graph([("v0", 0), ("v1", 0), ("v2", 0)], edges, 1)
            with pytest.raises(InputError, match="^dual graph is not connected$"):
                graph_to_datum(g)

    def test_multiplicity_weights_pairing(self):
        g = graph([("v0", 0)], [(("v0", "v0"), (3,))], 1)
        datum = graph_to_datum(g)
        assert datum.branches[0].pairing.entries == ((3,),)

    def test_theta_graph(self):
        # two vertices, three parallel edges: genus-2 dual graph
        g = graph([("v0", 0), ("v1", 0)],
                  [(("v0", "v1"), (1,)), (("v0", "v1"), (1,)), (("v0", "v1"), (1,))], 1)
        datum = graph_to_datum(g)
        assert datum.mu == 2
        pairing = datum.branches[0].pairing
        # intersection form of the theta graph in a fundamental-cycle basis
        assert abs(determinant(pairing)) == 3
        assert component_group(pairing).order == 3


class TestCurveEquivalences:
    def test_two_loops(self):
        report = curve_equivalences(TWO_LOOPS)
        verdict = report.datum.verdict
        assert verdict.toric_additive and verdict.weakly_toric_additive
        assert report.torsion_free and report.equivalence_holds
        assert report.falsifications == ()

    def test_shared_loop(self):
        report = curve_equivalences(SHARED_LOOP)
        verdict = report.datum.verdict
        assert not verdict.toric_additive and not verdict.weakly_toric_additive
        assert report.datum.purity_cokernel[1] == 1
        assert report.torsion_free and report.equivalence_holds

    def test_single_branch_random_graphs_ta(self):
        rng = random.Random(59)
        for _ in range(30):
            g = random_graph(rng, max_branches=1)
            report = curve_equivalences(g)
            assert report.datum.verdict.toric_additive
            assert report.falsifications == ()

    def test_randomized_suite(self):
        rng = random.Random(67)
        for _ in range(120):
            report = curve_equivalences(random_graph(rng))
            assert report.torsion_free, report.datum
            assert report.equivalence_holds, report.datum
            assert report.falsifications == ()


class TestSubdivisionInvariance:
    def test_split_multiplicity(self):
        # subdividing a loop of weight 2 into two weight-1 halves keeps phi
        original = graph([("v0", 0)], [(("v0", "v0"), (2,))], 1)
        split = graph([("v0", 0), ("w", 0)],
                      [(("v0", "w"), (1,)), (("w", "v0"), (1,))], 1)
        d1, d2 = graph_to_datum(original), graph_to_datum(split)
        assert d1.branches[0].pairing.entries == d2.branches[0].pairing.entries
        v1, v2 = analyze(d1), analyze(d2)
        assert (v1.toric_additive, v1.weakly_toric_additive) == \
            (v2.toric_additive, v2.weakly_toric_additive)

    def test_split_label_across_branches(self):
        # {1:1, 2:1} loop subdivided into a {1:1} half and a {2:1} half
        original = SHARED_LOOP
        split = graph([("v0", 0), ("w", 0)],
                      [(("v0", "w"), (1, 0)), (("w", "v0"), (0, 1))], 2)
        d1, d2 = graph_to_datum(original), graph_to_datum(split)
        assert (d1.mu, d1.branch_mus) == (d2.mu, d2.branch_mus)
        for i in range(2):
            assert d1.branches[i].pairing.entries == d2.branches[i].pairing.entries
        v1, v2 = analyze(d1), analyze(d2)
        assert (v1.toric_additive, v1.weakly_toric_additive) == \
            (v2.toric_additive, v2.weakly_toric_additive)


class TestTraitThroughGraph:
    def test_two_loops_composed_pairing(self):
        datum = graph_to_datum(TWO_LOOPS)
        composed = compose_trait(datum, TraitProfile((2, 3)))
        assert component_group(composed.matrix) == component_group(
            compose_trait(datum, TraitProfile((2, 3))).matrix)
        assert abs(determinant(composed.matrix)) == 6
