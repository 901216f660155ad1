"""Psi group, Kummer rescaling, Step-5 surjectivity, converse certificate."""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import product

import pytest

from degenkit import intmat, neron
from degenkit.degeneration import Branch, DegenDatum, StratumOverride, analyze, validate
from degenkit.errors import InputError
from degenkit.generators import (
    random_datum,
    random_polarized_datum,
    random_profile,
    random_ta_datum,
)
from degenkit.lattice import FinAb, Lattice, LatticeMap, cokernel
from degenkit.monodromy import TraitProfile, stratum_lattice
from degenkit.neron import (
    converse_check,
    converse_inputs_from_datum,
    psi_fixed_points,
    psi_group,
)

from conftest import load_fixture
from oracles import (
    add_maps,
    determinant,
    enumerate_qz_kernel,
    image_lattices_equal,
    kernel_saturated,
    kummer_rescale,
    reference_psi_fixed_points,
    reference_trait_surjectivity,
    sum_index,
    trait_surjectivity_check,
)


def lm(rows, source=None, target=None):
    return LatticeMap.from_rows(rows, source_rank=source, target_rank=target)


def two_branch_ta(phi1, phi2):
    """TA datum on Z^2 with identity purity and the given 1x1 pairings."""
    return DegenDatum("split", 0, 0, Lattice(2), (
        Branch("D1", Lattice(1), lm([[phi1]]), lm([[1, 0]])),
        Branch("D2", Lattice(1), lm([[phi2]]), lm([[0, 1]])),
    ))


class TestPsiGroup:
    def test_direct_sum(self):
        result = psi_group(two_branch_ta(2, 3))
        assert result.branch_components == (FinAb((2,)), FinAb((3,)))
        assert result.group == FinAb((6,))
        assert result.order == 6

    def test_example_3_4_trivial(self, example_3_4):
        result = psi_group(example_3_4)
        assert result.group.is_trivial and result.order == 1

    def test_no_branches(self):
        result = psi_group(DegenDatum("empty", 0, 0, Lattice(0), ()))
        assert result.group.is_trivial and result.order == 1


class TestKummerRescale:
    def test_identity_multipliers(self, example_3_4):
        rescaled = kummer_rescale(example_3_4, (1, 1))
        assert rescaled.branches[0].pairing.entries == ((1,),)
        assert psi_group(rescaled).group == psi_group(example_3_4).group

    def test_scalar_case(self):
        datum = DegenDatum("one", 0, 0, Lattice(1),
                           (Branch("D1", Lattice(1), lm([[1]]), lm([[1]])),))
        rescaled = kummer_rescale(datum, (4,))
        assert rescaled.branches[0].pairing.entries == ((4,),)
        assert psi_group(rescaled).branch_components == (FinAb((4,)),)

    def test_example_3_4_rescaled_2_3(self, example_3_4):
        rescaled = kummer_rescale(example_3_4, (2, 3))
        assert psi_group(rescaled).group == FinAb((6,))

    def test_rejects_wild_multiplier(self, example_3_4):
        datum = DegenDatum("p3", 0, 3, example_3_4.closed_point, example_3_4.branches)
        with pytest.raises(InputError, match="coprime"):
            psi_fixed_points(datum, (3, 1), psi_group(datum))

    def test_rejects_nonpositive(self, example_3_4):
        with pytest.raises(InputError, match="positive"):
            psi_fixed_points(example_3_4, (0, 1), psi_group(example_3_4))


class TestPsiFixedPoints:
    def test_trivial_multipliers(self):
        datum = two_branch_ta(2, 3)
        psi = psi_group(datum)
        result = psi_fixed_points(datum, (1, 1), psi)
        assert result.rescaled == result.fixed == psi.group
        assert result.equals_psi

    def test_kernel_of_two_inside_six(self):
        # phi = (2), m = 3: the 6-torsion kernel of Q/Z against the 2-torsion
        assert enumerate_qz_kernel([[6]], 6) == [6]
        assert enumerate_qz_kernel([[2]], 6) == [2]
        datum = DegenDatum("one", 0, 0, Lattice(1),
                           (Branch("D1", Lattice(1), lm([[2]]), lm([[1]])),))
        psi = psi_group(datum)
        result = psi_fixed_points(datum, (3,), psi)
        assert result.rescaled == FinAb((6,))
        assert result.fixed == FinAb((2,)) == psi.group
        assert result.equals_psi

    def test_unit_pairing_rescaled_by_five(self):
        datum = DegenDatum("one", 0, 0, Lattice(1),
                           (Branch("D1", Lattice(1), lm([[1]]), lm([[1]])),))
        result = psi_fixed_points(datum, (5,), psi_group(datum))
        assert result.rescaled == FinAb((5,))
        assert result.fixed.is_trivial and result.equals_psi

    def test_randomized_lemma(self):
        # the branchwise reassembly of Psi'^G is Psi on every datum, though
        # the rescaled group Psi' itself mostly differs from it
        rng = random.Random(61)
        generators = (random_datum, random_ta_datum, random_polarized_datum)
        differs = 0
        for k in range(120):
            p = (0, 2, 3, 5)[k % 4]
            datum = generators[k % 3](rng, max_mu=3, max_n=3, min_n=1, residue_char=p)
            ms = [rng.choice([m for m in range(1, 8) if not p or m % p])
                  for _ in range(datum.n)]
            psi = psi_group(datum)
            result = psi_fixed_points(datum, ms, psi)
            assert result.fixed == reference_psi_fixed_points(datum, ms)
            assert result.fixed == psi.group and result.equals_psi
            differs += result.rescaled != result.fixed
        assert differs > 60


class TestTraitSurjectivity:
    def test_split_datum_full_profile(self):
        result = trait_surjectivity_check(two_branch_ta(2, 3), TraitProfile((1, 1)))
        assert result.upsilon == FinAb((6,))
        assert result.psi_active == FinAb((6,))
        assert result.surjective

    def test_split_datum_drops_factor(self):
        result = trait_surjectivity_check(two_branch_ta(2, 3), TraitProfile((1, 0)))
        assert result.upsilon == FinAb((2,))
        assert result.psi_active == FinAb((2,))
        assert result.surjective

    def test_single_branch_identity(self):
        datum = DegenDatum("one", 0, 0, Lattice(2), (
            Branch("D1", Lattice(2), lm([[2, 0], [0, 2]]), LatticeMap.identity(2)),))
        result = trait_surjectivity_check(datum, TraitProfile((1,)))
        assert result.upsilon == result.psi_active == FinAb((2, 2))
        assert result.surjective

    def test_rejects_non_ta(self, example_3_4):
        with pytest.raises(InputError, match="toric additivity"):
            trait_surjectivity_check(example_3_4, TraitProfile((1, 1)))

    def test_rejects_non_transversal(self):
        with pytest.raises(InputError, match="transversal"):
            trait_surjectivity_check(two_branch_ta(2, 3), TraitProfile((2, 1)))

    def test_randomized_surjectivity_and_divisibility(self):
        rng = random.Random(71)
        for _ in range(50):
            datum = random_ta_datum(rng, max_mu=4, max_n=3, min_n=1)
            profile = TraitProfile(tuple(
                random_profile(rng, datum.n, transversal=True, allow_zero=True)))
            result = trait_surjectivity_check(datum, profile)
            assert result.surjective
            if result.upsilon.invariant_factors:
                assert result.psi_active.order % result.upsilon.order == 0

    def test_matches_the_presentation_reference(self):
        # B^t between cokernels against the projection built on invariant-factor
        # presentations, on every transversal profile; every valid B of a
        # toric-additive datum is unimodular, so Upsilon is Psi_J
        rng = random.Random(151)
        cases = 0
        for k in range(120):
            if k % 2:
                datum = random_polarized_datum(rng, max_mu=4, max_n=3, min_n=1, ta=True)
            else:
                datum = random_ta_datum(rng, max_mu=4, max_n=3, min_n=1)
            for multiplicities in product((0, 1), repeat=datum.n):
                profile = TraitProfile(multiplicities)
                result = trait_surjectivity_check(datum, profile)
                expected = reference_trait_surjectivity(datum, profile)
                assert (result.upsilon, result.psi_active, result.surjective) == expected
                assert result.upsilon == result.psi_active
                cases += 1
        assert cases > 400

    def test_rejects_a_dual_stratum_basis_that_is_not_unimodular(self):
        # sp'_i ∘ lambda = lambda_i ∘ sp_i, but (sp'_1; sp'_2) has determinant 2:
        # ⊕X'_j does not map into Y', so there is no projection over both
        # branches, where the presentations read Psi_J = 0 against Upsilon = Z/2
        datum = DegenDatum(
            "twisted", 0, 0, Lattice(2), (
                Branch("D1", Lattice(1), lm([[1]]), lm([[1, 0]])),
                Branch("D2", Lattice(1), lm([[1]]), lm([[0, 1]]))),
            dual_closed_point=Lattice(2),
            dual_specializations=(lm([[1, -1]]), lm([[1, 1]])),
            polarization=lm([[1, 1], [-1, 1]]),
            branch_polarizations=(lm([[2]]), lm([[2]])))
        assert validate(datum) == [] and analyze(datum).toric_additive
        assert reference_trait_surjectivity(datum, TraitProfile((1, 1))) \
            == (FinAb((2,)), FinAb(), False)
        with pytest.raises(InputError, match="not unimodular"):
            trait_surjectivity_check(datum, TraitProfile((1, 1)))
        for multiplicities in ((1, 0), (0, 1)):
            result = trait_surjectivity_check(datum, TraitProfile(multiplicities))
            assert result.surjective and result.upsilon == result.psi_active == FinAb()


class TestConverseCheck:
    def test_identity_split(self):
        cert = converse_check(lm([[1, 0]], target=1), lm([[0, 1]], target=1),
                              lm([[1]]), lm([[1]]))
        assert cert.verdict == "TA-certified"
        assert cert.chi1.entries == ((1, 0), (0, 0))
        assert cert.chi2.entries == ((0, 0), (0, 1))
        assert cert.idempotent and cert.kernel_decomposition and cert.a_is_isomorphism

    def test_example_3_4_fails_hypothesis(self):
        cert = converse_check(lm([[2, 1]], target=1), lm([[0, 1]], target=1),
                              lm([[1]]), lm([[1]]))
        assert cert.verdict == "hypothesis-failed"
        assert cert.coker_at_psi == FinAb((2,))
        assert cert.coker_at_psi_a == FinAb((2, 2))

    def test_sum_difference_split_fails(self):
        cert = converse_check(lm([[1, 1]], target=1), lm([[1, -1]], target=1),
                              lm([[1]]), lm([[1]]))
        assert cert.verdict == "hypothesis-failed"
        assert cert.coker_at_psi == FinAb((2,))
        assert cert.coker_at_psi_a == FinAb((2, 2))

    def test_rejects_non_surjective(self):
        with pytest.raises(InputError, match="surjective"):
            converse_check(lm([[2, 0]], target=1), lm([[0, 1]], target=1),
                           lm([[1]]), lm([[1]]))

    def test_rejects_non_spd(self):
        with pytest.raises(InputError, match="positive definite"):
            converse_check(lm([[1, 0]], target=1), lm([[0, 1]], target=1),
                           lm([[-1]]), lm([[1]]))

    @pytest.mark.parametrize("p_rows, q_rows", [
        ([[1, 1]], [[1, 1]]),                            # square, det A = 0
        ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]),  # 4×3 of rank 2
    ])
    def test_rejects_non_injective(self, p_rows, q_rows, intmat_calls):
        psi = LatticeMap.identity(len(p_rows))
        with pytest.raises(InputError, match="^stacked specializations are not injective$"):
            converse_check(lm(p_rows), lm(q_rows), psi, psi)
        # the free rank of coker(A^t·Psi·A) decides, with no rank pass
        assert intmat_calls["rank"] == []

    def test_non_square_injective_a_needs_no_rank(self, intmat_calls):
        cert = converse_check(lm([[1, 0]]), lm([[1, 0], [0, 1]]),
                              lm([[1]]), LatticeMap.identity(2))
        assert cert.verdict == "hypothesis-failed"
        assert cert.coker_at_psi == FinAb(()) and cert.coker_at_psi_a == FinAb((2,))
        assert intmat_calls["rank"] == []

    def test_random_ta_data_certify(self):
        rng = random.Random(83)
        for _ in range(50):
            datum = random_ta_datum(rng, max_mu=4, max_n=3, min_n=1)
            p_map, q_map, psi1, psi2 = converse_inputs_from_datum(datum)
            cert = converse_check(p_map, q_map, psi1, psi2)
            assert cert.verdict == "TA-certified"
            assert cert.idempotent and cert.kernel_decomposition
            assert cert.a_is_isomorphism

    def test_datum_split_matches_example_3_4(self, example_3_4):
        p_map, q_map, psi1, psi2 = converse_inputs_from_datum(example_3_4)
        assert p_map.entries == ((2, 1),)
        assert q_map.entries == ((0, 1),)
        assert psi1.entries == ((1,),)
        assert psi2.entries == ((1,),)
        assert converse_check(p_map, q_map, psi1, psi2).verdict == "hypothesis-failed"

    def test_split_reads_the_primal_stratum_alone(self, monkeypatch):
        # on a non-principal datum an override without a dual inclusion
        # leaves the dual stratum undefined, so validation refuses it; with
        # one, the converse still reads the primal stratum alone
        datum = random_polarized_datum(random.Random(3), max_mu=3, max_n=2, min_n=2)
        k = datum.branches[1].lattice.rank
        bare = replace(datum, strata=(StratumOverride((1,), LatticeMap.identity(k)),))
        with pytest.raises(InputError, match="no dual inclusion on a non-principal datum"):
            converse_inputs_from_datum(bare)
        dual_inclusion = LatticeMap.identity(datum.branches[1].dual_rank)
        datum = replace(datum, strata=(
            StratumOverride((1,), LatticeMap.identity(k), dual_inclusion),))
        assert not datum.is_principal and not datum.violations
        sides = []

        def recording(d, active, dual=False):
            sides.append(dual)
            return stratum_lattice(d, active, dual)

        monkeypatch.setattr(neron, "stratum_lattice", recording)
        p_map, q_map, psi1, psi2 = converse_inputs_from_datum(datum)
        assert sides == [False]
        assert q_map == datum.branches[1].specialization
        assert psi2 == datum.branches[1].pairing.compose(datum.branch_polarizations[1])
        assert converse_check(p_map, q_map, psi1, psi2).verdict == "hypothesis-failed"

    def test_hypothesis_is_image_equality(self):
        # im(A^t·Psi·A) ⊆ im(A^t·Psi), both of full rank: equal exactly when
        # the cokernels are, which is what converse_check compares
        rng = random.Random(84)
        outcomes = []
        for make in (random_datum, random_ta_datum, random_polarized_datum) * 40:
            datum = make(rng, max_mu=4, max_n=3, min_n=2)
            p_map, q_map, psi1, psi2 = converse_inputs_from_datum(datum)
            a = LatticeMap.stack([p_map, q_map])
            at_psi = a.transpose().compose(LatticeMap.block_diagonal([psi1, psi2]))
            at_psi_a = at_psi.compose(a)
            equal = image_lattices_equal(at_psi, at_psi_a)
            assert equal == (cokernel(at_psi) == cokernel(at_psi_a))
            assert converse_check(p_map, q_map, psi1, psi2).hypothesis_holds == equal
            outcomes.append(equal)
        assert 20 < sum(outcomes) < 100

    def test_certificate_identities(self):
        # the hypothesis holds exactly when the normal-equation splitting
        # theta = (A^t·Psi·A)^-1·A^t·Psi is integral, and exactly when A is
        # square unimodular; the certificate's theta is that splitting, and
        # the identities the certificate no longer checks hold
        rng = random.Random(85)
        certified = 0
        for make in (random_datum, random_ta_datum, random_polarized_datum) * 100:
            datum = make(rng, max_mu=5, max_n=4, min_n=2)
            p_map, q_map, psi1, psi2 = converse_inputs_from_datum(datum)
            a = LatticeMap.stack([p_map, q_map])
            at_psi = a.transpose().compose(LatticeMap.block_diagonal([psi1, psi2]))
            at_psi_a = at_psi.compose(a)
            mu = a.ncols
            theta = intmat.solve_rational(at_psi_a.entries, mu, at_psi.entries, a.nrows)
            integral = all(f.denominator == 1 for row in theta for f in row)
            unimodular = a.nrows == mu and abs(determinant(a)) == 1
            cert = converse_check(p_map, q_map, psi1, psi2)
            assert cert.hypothesis_holds == integral == unimodular
            if not cert.hypothesis_holds:
                continue
            certified += 1
            assert cert.theta == tuple(map(tuple, theta))
            chi1, chi2 = cert.chi1, cert.chi2
            assert add_maps(chi1, chi2) == LatticeMap.identity(mu)
            assert chi1.compose(chi1) == chi1 and chi2.compose(chi2) == chi2
            ker_p, ker_q = kernel_saturated(p_map), kernel_saturated(q_map)
            assert sum_index([ker_p, ker_q]) == 1 and ker_p.ncols + ker_q.ncols == mu
            restricted = p_map.compose(ker_q)
            assert restricted.nrows == restricted.ncols
            assert abs(determinant(restricted)) == 1
        assert 50 < certified < 250

    @pytest.mark.parametrize("name", ["example_3_4", "product_tate"])
    def test_no_hermite_form(self, name, intmat_calls):
        inputs = converse_inputs_from_datum(load_fixture(name))
        intmat_calls.clear_all()
        converse_check(*inputs)
        assert intmat_calls["hnf_columns"] == []
