"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is exact (integer equality) and every runtime budget
is asserted, not just observed.
"""

from __future__ import annotations

import random
import time

from degenkit import intmat
from degenkit.curves import curve_equivalences, graph_to_datum
from degenkit.degeneration import analyze, is_l_toric_additive
from degenkit.galois import action_torsion, star_condition, torsion_phi_group
from degenkit.generators import (
    random_datum,
    random_graph,
    random_ta_datum,
)
from degenkit.lattice import FinAb, LatticeMap, cokernel, l_part
from degenkit.monodromy import TraitProfile, compose_trait
from degenkit.neron import converse_inputs_from_datum, psi_group

from conftest import load_fixture, random_profile
from oracles import (
    branch_factors,
    component_group,
    converse_check,
    decomposition_check,
    determinant,
    reference_psi_fixed_points,
    reference_smith_diagonal,
    torsion_kernel_qz,
)


def _report(number: int, elapsed: float, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {message}")


def test_criterion_1_example_3_4_regression():
    t0 = time.perf_counter()
    datum = load_fixture("example_3_4")
    verdict = analyze(datum)
    assert verdict.weakly_toric_additive is True
    assert verdict.toric_additive is False
    assert verdict.failing_primes == (2,)
    assert datum.purity_cokernel == (FinAb((2,)), 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "example_3_4: weak TA, not TA, failing primes {2}, cokernel Z/2")


def test_criterion_2_trait_family():
    t0 = time.perf_counter()
    datum = load_fixture("example_3_4")
    for (a, b) in [(1, 1), (2, 3), (5, 1)]:
        composed = compose_trait(datum, TraitProfile((a, b)))
        assert composed.matrix.entries == ((4 * a, 2 * a), (2 * a, a + b)), (a, b)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "trait family [[4a,2a],[2a,a+b]] reproduced at (1,1),(2,3),(5,1)")


def test_criterion_3_section_3_2_trio():
    t0 = time.perf_counter()
    tate = analyze(load_fixture("tate_u1u2"))
    assert tate.weakly_toric_additive is False
    product = analyze(load_fixture("product_tate"))
    assert product.toric_additive is True
    genus2 = graph_to_datum(load_fixture("genus2_graph"))
    assert (genus2.mu, genus2.branch_mus, sum(genus2.branch_mus) - genus2.mu) == (2, (1, 1), 0)
    assert analyze(genus2).toric_additive is True
    elapsed = time.perf_counter() - t0
    _report(3, elapsed, "trio: tate not weakly TA; product TA; genus-2 graph mu=2, mu_i=1, TA")


def test_criterion_4_theorem_equivalence_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024_04)
    disagreements = 0
    count = 0
    for _ in range(500):
        datum = random_datum(rng, max_mu=4, max_n=3)
        assert all(abs(v) <= 9 for b in datum.branches
                   for row in (*b.pairing.entries, *b.specialization.entries)
                   for v in row)
        count += 1
        factors = branch_factors(datum)
        for l in (2, 3, 5):
            star = star_condition(datum, l)
            decomposition = decomposition_check(factors, l)
            lattice_side = is_l_toric_additive(datum, l)
            if not (star == decomposition == lattice_side):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    assert count >= 500
    assert disagreements == 0
    assert elapsed < 60.0
    _report(4, elapsed, f"star == decomposition == l-TA on {count} datums x l in {{2,3,5}}, "
                        f"0 disagreements")


def test_criterion_5_component_group_oracle():
    t0 = time.perf_counter()
    rng = random.Random(2024_05)
    checked = 0
    disagreements = 0
    while checked < 200:
        datum = random_datum(rng, max_mu=3, max_n=3, min_n=1)
        profile = TraitProfile(tuple(random_profile(rng, datum.n, transversal=True)))
        composed = compose_trait(datum, profile)
        if composed.matrix.nrows != composed.matrix.ncols:
            continue
        det = determinant(composed.matrix)
        if det == 0:
            continue
        l = rng.choice([2, 3, 5])
        r = 1
        while l ** r <= abs(det):
            r += 1
        galois_side = torsion_phi_group(action_torsion(datum, profile), l, r)
        lattice_side = l_part(component_group(composed.matrix), l)
        if galois_side != lattice_side:
            disagreements += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60.0
    _report(5, elapsed, f"torsion formula == l-part of coker(phi_f) on {checked} tuples, "
                        f"0 disagreements")


def test_criterion_6_kummer_fixed_points():
    t0 = time.perf_counter()
    rng = random.Random(2024_06)
    checked = 0
    while checked < 200:
        p = rng.choice([0, 0, 0, 5, 7])
        datum = random_datum(rng, max_mu=3, max_n=3, min_n=1, residue_char=p)
        multipliers = []
        for _ in range(datum.n):
            m = rng.randint(1, 9)
            while p and m % p == 0:
                m = rng.randint(1, 9)
            multipliers.append(m)
        assert reference_psi_fixed_points(datum, multipliers) == psi_group(datum).group, \
            (datum, multipliers)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 200
    assert elapsed < 30.0
    _report(6, elapsed, f"rescaled fixed points equal Psi on {checked} (datum, tame m) pairs")


def test_criterion_7_converse_certificates():
    t0 = time.perf_counter()
    rng = random.Random(2024_07)
    for _ in range(200):
        datum = random_ta_datum(rng, max_mu=4, max_n=3, min_n=1)
        cert = converse_check(*converse_inputs_from_datum(datum))
        assert cert.hypothesis_holds
        # complementary idempotents
        chi1, chi2 = cert.chi1, cert.chi2
        assert chi1.compose(chi1) == chi1 and chi2.compose(chi2) == chi2
        assert chi1.compose(chi2) == LatticeMap.zero(chi1.nrows, chi1.ncols)
    failing = converse_check(*converse_inputs_from_datum(load_fixture("example_3_4")))
    assert not failing.hypothesis_holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(7, elapsed, "200 generated TA datums certified; example_3_4 fails the hypothesis")


def test_criterion_8_curve_equivalences():
    t0 = time.perf_counter()
    rng = random.Random(2024_08)
    for _ in range(300):
        graph = random_graph(rng, max_edges=8, max_branches=3)
        assert len(graph.edges) <= 8
        report = curve_equivalences(graph)
        assert report.torsion_free, graph
        assert report.equivalence_holds, graph
        assert report.falsifications == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, elapsed, "300 random graphs: purity cokernel torsion-free, weak-TA == TA")


def test_criterion_9_lattice_core_soundness():
    t0 = time.perf_counter()
    rng = random.Random(2024_09)
    injective_checked = 0
    for _ in range(1000):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(nc)] for _ in range(nr)]
        m = LatticeMap.from_rows(rows, nc)
        facs = intmat.invariant_factors(rows, nr, nc)
        assert facs == reference_smith_diagonal(rows, nr, nc)
        if len(facs) == nc:  # injective case
            injective_checked += 1
            assert torsion_kernel_qz(m) == (cokernel(m.transpose())[0], 0)
    elapsed = time.perf_counter() - t0
    assert injective_checked > 0
    _report(9, elapsed, f"1000 Smith diagonals match the reference; Q/Z-kernel == "
                        f"transpose cokernel on {injective_checked} injective cases")
