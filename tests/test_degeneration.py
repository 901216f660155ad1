"""Degeneration data model, validation, and toric-additivity verdicts."""

from __future__ import annotations

import random

import pytest

from degenkit.degeneration import (
    Branch,
    DegenDatum,
    analyze,
    dual_datum,
    is_l_toric_additive,
    purity_matrix,
    toric_rank_profile,
    validate,
)
from degenkit.errors import InputError
from degenkit.generators import random_datum, random_polarized_datum, random_ta_datum
from degenkit.intmat import bareiss_det
from degenkit.lattice import FinAb, Lattice, LatticeMap
from degenkit.monodromy import sub_datum

from conftest import load_fixture


def simple_datum(specializations, pairings, mu, name="test"):
    branches = tuple(
        Branch(f"D{i + 1}", Lattice(len(sp)),
               LatticeMap.from_rows(ph, source_rank=len(ph), target_rank=len(ph)),
               LatticeMap.from_rows(sp, source_rank=mu, target_rank=len(sp)))
        for i, (sp, ph) in enumerate(zip(specializations, pairings)))
    return DegenDatum(name, 0, 0, Lattice(mu), branches)


class TestValidate:
    def test_example_3_4_is_valid(self, example_3_4):
        assert validate(example_3_4) == []

    def test_non_surjective_specialization(self):
        datum = simple_datum([[[2, 0]]], [[[1]]], 2)
        messages = [v.invariant for v in validate(datum)]
        assert "specialization not surjective" in messages
        # the report names the offending branch
        bad = [v for v in validate(datum) if v.invariant == "specialization not surjective"]
        assert bad[0].branch == 0

    def test_negative_pairing_rejected(self):
        datum = simple_datum([[[1, 0]], [[0, 1]]], [[[-1]], [[1]]], 2)
        messages = [v.invariant for v in validate(datum)]
        assert "pairing not positive definite" in messages

    def test_asymmetric_pairing_rejected(self):
        datum = simple_datum([[[1, 0], [0, 1]]], [[[1, 2], [0, 1]]], 2)
        messages = [v.invariant for v in validate(datum)]
        assert "pairing not symmetric" in messages

    def test_purity_injectivity(self):
        # two branches both killing the second coordinate
        datum = simple_datum([[[1, 0]], [[1, 0]]], [[[1]], [[1]]], 2)
        messages = [v.invariant for v in validate(datum)]
        assert "purity map not injective" in messages

    def test_non_prime_residue_char(self, example_3_4):
        datum = DegenDatum("bad", 0, 4, example_3_4.closed_point, example_3_4.branches)
        messages = [v.invariant for v in validate(datum)]
        assert "residue characteristic not 0 or prime" in messages


class TestPurityMatrix:
    def test_example_3_4_basis(self, example_3_4):
        assert purity_matrix(example_3_4).entries == ((2, 1), (0, 1))

    def test_single_branch_identity(self):
        datum = simple_datum([[[1, 0], [0, 1]]], [[[1, 0], [0, 1]]], 2)
        assert purity_matrix(datum).entries == ((1, 0), (0, 1))

    def test_tate_column(self, tate_u1u2):
        assert purity_matrix(tate_u1u2).entries == ((1,), (1,))


class TestAnalyze:
    def test_example_3_4_verdict(self, example_3_4):
        v = analyze(example_3_4)
        assert v.weakly_toric_additive
        assert not v.toric_additive
        assert v.failing_primes == (2,)
        assert v.purity_torsion == FinAb((2,))
        assert v.purity_free_rank == 0

    def test_tate_not_weak(self, tate_u1u2):
        v = analyze(tate_u1u2)
        assert not v.weakly_toric_additive
        assert not v.toric_additive
        assert v.purity_free_rank == 1

    def test_single_branch_always_ta(self):
        rng = random.Random(17)
        for _ in range(25):
            datum = random_datum(rng, max_mu=4, max_n=1, min_n=1)
            assert analyze(datum).toric_additive

    def test_zero_branch_ta(self):
        datum = DegenDatum("empty", 1, 0, Lattice(0), ())
        assert analyze(datum).toric_additive

    def test_verdict_consistency_random(self):
        # TA => l-TA for all l; weak <=> l-TA for some l <=> all but finitely many
        rng = random.Random(23)
        for _ in range(60):
            datum = random_datum(rng, max_mu=4, max_n=3)
            v = analyze(datum)
            for l in (2, 3, 5, 7):
                flag = is_l_toric_additive(datum, l)
                if v.toric_additive:
                    assert flag
                if not v.weakly_toric_additive:
                    assert not flag
                if v.weakly_toric_additive and l not in v.failing_primes:
                    assert flag
                if l in v.failing_primes:
                    assert not flag
                # independent of the purity SNF: square purity and l ∤ det
                pur = purity_matrix(datum)
                square = pur.nrows == pur.ncols
                assert flag == (square and bareiss_det(pur.entries, pur.nrows) % l != 0)


class TestLToricAdditive:
    def test_example_3_4_primes(self, example_3_4):
        assert is_l_toric_additive(example_3_4, 3)
        assert not is_l_toric_additive(example_3_4, 2)

    def test_rejects_residue_char(self, example_3_4):
        datum = DegenDatum("p3", 0, 3, example_3_4.closed_point, example_3_4.branches)
        with pytest.raises(InputError, match="residue characteristic"):
            is_l_toric_additive(datum, 3)

    def test_zero_branches(self):
        datum = DegenDatum("empty", 0, 0, Lattice(0), ())
        assert is_l_toric_additive(datum, 5)


class TestRankProfile:
    def test_genus2_deformation(self, genus2_graph):
        from degenkit.curves import graph_to_datum
        mu, mus, deficit = toric_rank_profile(graph_to_datum(genus2_graph))
        assert (mu, mus, deficit) == (2, (1, 1), 0)

    def test_tate(self, tate_u1u2):
        assert toric_rank_profile(tate_u1u2) == (1, (1, 1), 1)

    def test_product(self, product_tate):
        assert toric_rank_profile(product_tate) == (2, (1, 1), 0)


class TestDualDatum:
    def test_principal_unchanged(self, example_3_4):
        dual = dual_datum(example_3_4)
        assert dual.mu == example_3_4.mu
        assert purity_matrix(dual).entries == purity_matrix(example_3_4).entries
        v1, v2 = analyze(example_3_4), analyze(dual)
        assert (v1.toric_additive, v1.weakly_toric_additive, v1.failing_primes) == \
            (v2.toric_additive, v2.weakly_toric_additive, v2.failing_primes)

    def test_scalar_polarization(self):
        # lambda_i = multiplication by 2: dual verdicts equal primal verdicts
        base = load_fixture("example_3_4")
        two = LatticeMap.from_rows([[2]])
        datum = DegenDatum(
            "scaled", 0, 0, base.closed_point, base.branches,
            dual_closed_point=base.closed_point,
            dual_specializations=tuple(b.specialization for b in base.branches),
            polarization=LatticeMap.from_rows([[2, 0], [0, 2]]),
            branch_polarizations=(two, two),
        )
        assert validate(datum) == []
        v1, v2 = analyze(datum), analyze(dual_datum(datum))
        assert (v1.toric_additive, v1.weakly_toric_additive, v1.failing_primes) == \
            (v2.toric_additive, v2.weakly_toric_additive, v2.failing_primes)

    def test_randomized_invariance(self):
        rng = random.Random(41)
        for _ in range(40):
            datum = random_polarized_datum(rng, max_mu=3, max_n=3, min_n=1,
                                           ta=rng.random() < 0.5)
            assert validate(datum) == []
            v1, v2 = analyze(datum), analyze(dual_datum(datum))
            assert v1.toric_additive == v2.toric_additive
            assert v1.weakly_toric_additive == v2.weakly_toric_additive
            assert v1.failing_primes == v2.failing_primes
            for l in (2, 3, 5):
                assert is_l_toric_additive(datum, l) == is_l_toric_additive(dual_datum(datum), l)


class TestRestriction:
    def test_sub_datum_preserves_ta(self):
        rng = random.Random(12)
        for _ in range(30):
            datum = random_ta_datum(rng, max_mu=4, max_n=3, min_n=1)
            subset = tuple(j for j in range(datum.n) if rng.random() < 0.7)
            sub = sub_datum(datum, subset)
            assert validate(sub) == []
            assert analyze(sub).toric_additive

    def test_sub_datum_full_set_is_closed_point(self, example_3_4):
        sub = sub_datum(example_3_4, (0, 1))
        assert sub.mu == example_3_4.mu
        assert purity_matrix(sub).entries == purity_matrix(example_3_4).entries
