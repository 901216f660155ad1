"""The synthesized monodromy action and its use as an independent oracle."""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degenkit import cli
from degenkit.degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    is_l_toric_additive,
    restricted_purity,
)
from degenkit.errors import InputError
from degenkit.galois import (
    action_torsion,
    stack_torsion,
    star_condition,
    torsion_phi_group,
)
from degenkit.generators import (
    random_datum,
    random_polarized_datum,
    random_spd,
    random_ta_datum,
    random_unimodular,
)
from degenkit.lattice import (
    FinAb,
    LatticeMap,
    cokernel,
    is_onto,
    l_part,
)
from degenkit.monodromy import (
    TraitProfile,
    closed_point_pairing,
    compose_trait,
    stratum_lattice,
    trait_component_group,
)
from degenkit.schema import datum_to_dict

import galois_full as full_model
from conftest import fixture_path, load_fixture, random_profile
from oracles import (
    Factors,
    add_maps,
    beside,
    branch_factors,
    closed_point_bound,
    component_group,
    decomposition_check,
    determinant,
    dual_datum,
    exclusive_index,
    exclusive_parts,
    fixed_lattice,
    image_lattices_equal,
    kernel_saturated,
    psi_blocks,
    psi_maps,
    purity_matrix,
    reference_star_condition,
    row_basis,
    row_lattice,
    sum_index,
)
from test_intmat import wall_clock_budget


def lm(rows, ncols=None):
    return LatticeMap.from_rows(rows, ncols)


def factors_of(psi: tuple[LatticeMap, ...]) -> Factors:
    """Factors whose products are the given psi_i, as (identity, psi_i)
    pairs: sp_i and phi_i are identities and sp'_i is psi_i."""
    return tuple((LatticeMap.identity(m.nrows), m) for m in psi)


class TestBuildRep:
    """The full integer model of the representation on T against the groups
    that the galois module reads off the datum."""

    def test_no_branches(self):
        datum = DegenDatum("empty", 2, 0, 0, ())
        assert full_model.full_rep(datum, 3).total == 4     # 2d with d = alpha = 2
        assert branch_factors(datum) == ()
        assert stack_torsion(datum).is_trivial
        assert fixed_lattice((), ()).ncols == 0

    def test_example_3_4_ranks(self, example_3_4):
        assert full_model.full_rep(example_3_4, 3).total == 4
        assert example_3_4.mu == 2
        factors = branch_factors(example_3_4)
        assert [(psi.nrows, psi.ncols) for psi in psi_blocks(factors)] == [(2, 2), (2, 2)]
        # T^G = T^f = X^dual ⊕ C: no X' part
        assert fixed_lattice(factors, (0, 1)).ncols == 0

    def test_single_branch_elementary(self):
        datum = DegenDatum("one", 0, 0, 1,
                           (Branch("D1", lm([[5]]), lm([[1]])),))
        # X' generator goes to 5 times the X^dual generator
        assert psi_blocks(branch_factors(datum))[0].entries == ((5,),)
        assert stack_torsion(datum) == FinAb((5,))

    def test_unipotency_and_commutation(self):
        rng = random.Random(19)
        for _ in range(20):
            datum = random_datum(rng, max_mu=3, max_n=3, min_n=1)
            full = full_model.full_rep(datum, 2)
            for i in range(full.n):
                sigma = full.sigma(i)
                delta = add_maps(sigma, LatticeMap.identity(full.total).scaled(-1))
                assert full_model.is_zero(delta.compose(delta))
                for j in range(full.n):
                    a = full.sigma(i).compose(full.sigma(j))
                    b = full.sigma(j).compose(full.sigma(i))
                    assert a.entries == b.entries

    def test_block_form_matches_full_model(self):
        rng = random.Random(23)
        for _ in range(60):
            datum = replace(random_datum(rng, max_mu=3, max_n=3, min_n=1),
                            abelian_rank=rng.randint(0, 3))
            profile = TraitProfile(tuple(random_profile(rng, datum.n)))
            for l in (2, 3):
                full = full_model.full_rep(datum, l)
                # the full fixed lattice is T^f, which the block form certified
                assert image_lattices_equal(
                    full_model.fixed_lattice(full, tuple(range(full.n))), full.fixed_part())
                assert star_condition(datum, l) == full_model.star_condition(full)
                assert decomposition_check(branch_factors(datum), l) == \
                    full_model.decomposition_check(full)
                assert torsion_phi_group(action_torsion(datum, profile), l, 3) == \
                    full_model.torsion_phi_group(full, profile, 3)
                for r in (1, 3, 5):
                    assert torsion_phi_group(stack_torsion(datum), l, r) == \
                        full_model.closed_point_torsion(full, r)

    def test_rejects_residue_char(self, example_3_4):
        datum = DegenDatum("p3", 0, 3, example_3_4.mu, example_3_4.branches)
        with pytest.raises(InputError, match="residue characteristic"):
            star_condition(datum, 3)


class TestStarCondition:
    def test_example_3_4_star(self, example_3_4):
        assert not star_condition(example_3_4, 2)
        assert star_condition(example_3_4, 3)

    def test_single_branch_always(self):
        datum = DegenDatum("one", 0, 0, 1,
                           (Branch("D1", lm([[6]]), lm([[1]])),))
        assert star_condition(datum, 2)
        assert star_condition(datum, 3)


class TestDecompositionCheck:
    def test_ta_datum(self, product_tate):
        for l in (2, 3, 5):
            assert decomposition_check(branch_factors(product_tate), l)

    def test_example_3_4_at_two(self, example_3_4):
        assert not decomposition_check(branch_factors(example_3_4), 2)

    def test_no_branches_vacuous(self):
        assert decomposition_check(branch_factors(DegenDatum("empty", 1, 0, 0, ())), 2)


class TestTheoremEquivalence:
    def test_randomized_three_way(self):
        rng = random.Random(121)
        for _ in range(120):
            datum = random_datum(rng, max_mu=4, max_n=3)
            for l in (2, 3, 5):
                star = star_condition(datum, l)
                decomposition = decomposition_check(branch_factors(datum), l)
                lattice_side = is_l_toric_additive(datum, l)
                assert star == decomposition == lattice_side, (datum, l)

    def test_polarized_datums_too(self):
        rng = random.Random(122)
        for _ in range(30):
            datum = random_polarized_datum(rng, max_mu=3, max_n=3, min_n=1)
            for l in (2, 3):
                assert star_condition(datum, l) == decomposition_check(branch_factors(datum), l) \
                    == is_l_toric_additive(datum, l)


    def test_scale_with_abelian_rank(self):
        rng = random.Random(123)
        for gen in (random_datum, random_ta_datum):
            for _ in range(30):
                datum = replace(gen(rng, max_mu=12, max_n=6, min_n=2),
                                abelian_rank=rng.randint(0, 64))
                factors = branch_factors(datum)
                for l in (2, 3):
                    assert star_condition(datum, l) == decomposition_check(factors, l) \
                        == is_l_toric_additive(datum, l), (datum.name, l)


class TestTorsionPhiGroup:
    def test_single_branch_multiplication(self):
        datum = DegenDatum("one", 0, 0, 1,
                           (Branch("D1", lm([[12]]), lm([[1]])),))
        for l, r in ((2, 5), (3, 3)):
            action = action_torsion(datum, TraitProfile((1,)))
            assert torsion_phi_group(action, l, r) == l_part(FinAb((12,)), l)

    def test_example_3_4_profile_1_1(self, example_3_4):
        lattice_side = l_part(component_group(
            compose_trait(example_3_4, TraitProfile((1, 1))).matrix), 2)
        assert lattice_side == FinAb((2, 2))
        action = action_torsion(example_3_4, TraitProfile((1, 1)))
        assert torsion_phi_group(action, 2, 4) == FinAb((2, 2))

    def test_all_zero_profile(self, example_3_4):
        action = action_torsion(example_3_4, TraitProfile((0, 0)))
        assert torsion_phi_group(action, 2, 3).is_trivial

    def test_stable_in_r(self, example_3_4):
        action = action_torsion(example_3_4, TraitProfile((1, 1)))
        values = [torsion_phi_group(action, 2, r) for r in (3, 4, 5, 6)]
        assert all(v == values[0] for v in values)

    def test_randomized_cross_validation(self):
        rng = random.Random(131)
        checked = 0
        while checked < 60:
            datum = random_datum(rng, max_mu=3, max_n=3, min_n=1)
            profile = TraitProfile(tuple(random_profile(rng, datum.n, transversal=True)))
            composed = compose_trait(datum, profile)
            if composed.matrix.nrows != composed.matrix.ncols:
                continue
            det = determinant(composed.matrix)
            if det == 0:
                continue
            checked += 1
            for l in (2, 3, 5):
                r = 1
                while l ** r <= abs(det):
                    r += 1
                action = action_torsion(datum, profile)
                assert torsion_phi_group(action, l, r) == \
                    l_part(component_group(composed.matrix), l)


class TestClosedPointTorsion:
    def test_contained_in_bound(self):
        rng = random.Random(141)
        for _ in range(40):
            datum = random_datum(rng, max_mu=3, max_n=3, min_n=1)
            for l in (2, 3):
                exact = torsion_phi_group(stack_torsion(datum), l, 6)
                bound, qz_rank = closed_point_bound(datum, l)
                if qz_rank == 0 and bound.invariant_factors:
                    assert bound.order % (exact.order if not exact.is_trivial else 1) == 0

    def test_n1_exact(self):
        datum = DegenDatum("one", 0, 0, 1,
                           (Branch("D1", lm([[8]]), lm([[1]])),))
        assert torsion_phi_group(stack_torsion(datum), 2, 5) == FinAb((8,))


# entries rich in powers of 2 and 3, so the groups reach past the low levels
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6, -8, 9, 12, 16, -18, 27, 32, 81])


def square_maps(count: int):
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=count, max_size=count))


class TestClosedForm:
    """ker(A mod l^r) / im(ker_Z A) = ⊕ Z/gcd(d_k, l^r), against the explicit kernel."""

    @settings(max_examples=150, deadline=None)
    @given(square_maps(1), st.sampled_from([2, 3]))
    def test_trait_group_matches_explicit_kernel(self, maps, l):
        action = lm(maps[0])
        torsion = cokernel(action)[0]
        for r in range(1, 7):
            assert torsion_phi_group(torsion, l, r) == \
                full_model.mod_lr_quotient(action, kernel_saturated(action), l ** r)

    def test_level_past_the_bit_length_changes_nothing(self):
        # gcd(d, l^r) with r cut at d.bit_length(), against the full power l^r
        rng = random.Random(227)
        for _ in range(300):
            torsion = FinAb.from_cyclic_orders(
                [rng.choice((2, 3, 5)) ** rng.randint(0, 9) * rng.randint(1, 40)
                 for _ in range(3)])
            l, r = rng.choice((2, 3, 5)), rng.randint(1, 40)
            expected = [g for g in (gcd(d, l ** r) for d in torsion.invariant_factors) if g > 1]
            assert list(torsion_phi_group(torsion, l, r).invariant_factors) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(square_maps), st.sampled_from([2, 3]))
    def test_closed_point_matches_explicit_kernel(self, maps, l):
        psi = tuple(lm(rows) for rows in maps)
        stacked = LatticeMap.stack(list(psi))
        assume(stacked.is_injective())   # as on every valid datum
        torsion = cokernel(stacked)[0]
        no_fixed_part = LatticeMap.zero(stacked.ncols, 0)
        for r in range(1, 7):
            assert torsion_phi_group(torsion, l, r) == \
                full_model.mod_lr_quotient(stacked, no_fixed_part, l ** r)


def _random_datums(rng: random.Random, count: int):
    gens = (random_datum, random_ta_datum, random_polarized_datum)
    for k in range(count):
        yield gens[k % 3](rng, max_mu=8, max_n=5, min_n=1)


class TestProvenIdentities:
    """Report values that a theorem fixes; the report keeps them for its format."""

    def test_decomposition_equals_star_condition(self):
        rng = random.Random(151)
        for datum in _random_datums(rng, 90):
            factors = branch_factors(datum)
            parts = list(exclusive_parts(factors))
            # the exclusive parts are independent ...
            together = beside(parts)
            assert together.rank_of_image() == together.ncols <= datum.mu
            # ... so their ranks fill X' exactly when their sum has finite index
            assert (together.ncols == datum.mu) == (sum_index(parts) is not None)
            for l in (2, 3, 5):
                assert decomposition_check(factors, l) == star_condition(datum, l), (datum.name, l)

    def test_closed_point_torsion_equals_bound(self):
        rng = random.Random(152)
        for datum in _random_datums(rng, 90):
            for l in (2, 3, 5):
                bound, qz_rank = closed_point_bound(datum, l)
                assert qz_rank == 0
                level = 1
                while l ** level < bound.exponent:
                    level += 1
                torsion = stack_torsion(datum)
                assert torsion_phi_group(torsion, l, level) == bound, (datum.name, l)
                assert torsion_phi_group(torsion, l, level + 1) == bound

    def test_stack_torsion_l_part_is_the_closed_point_bound(self):
        # the oracle reads its bound off stack_torsion; n = 0 included
        rng = random.Random(154)
        datums = [DegenDatum("empty", 1, 0, 0, ())]
        datums += [random_datum(rng, max_mu=4, max_n=3) for _ in range(30)]
        assert any(datum.n == 0 for datum in datums)
        for datum in datums:
            for l in (2, 3):
                assert (l_part(stack_torsion(datum), l), 0) == closed_point_bound(datum, l), \
                    datum.name

    def test_oracle_bound_is_never_strict(self, capsys, tmp_path):
        rng = random.Random(153)
        for k, datum in enumerate(_random_datums(rng, 24)):
            path = tmp_path / f"d{k}.json"
            path.write_text(json.dumps(datum_to_dict(datum)))
            for l in ("2", "3"):
                code = cli.main(["oracle", str(path), "--l", l, "--json"])
                closed = json.loads(capsys.readouterr().out)["oracle"]["closed_point"]
                assert code == 0
                assert closed["bound_is_strict"] is False
                assert closed["exact_torsion"] == dict(closed["bound"], divisible_rank=0)


def _action(datum: DegenDatum, profile: tuple[int, ...]) -> LatticeMap:
    """sum a_i·psi_i, from the mu × mu products psi_i."""
    expected = LatticeMap.zero(datum.mu, datum.mu)
    for a, m in zip(profile, psi_maps(datum)):
        expected = add_maps(expected, m.scaled(a))
    return expected


class TestFactors:
    """The Galois side reads its groups off the factors (sp_i, f_i) of each
    psi_i = sp_i^t·f_i; the three facts of the galois module docstring,
    against the products."""

    def test_identities_on_generated_datums(self):
        rng = random.Random(171)
        checked = 0
        for datum in _random_datums(rng, 96):
            factors = branch_factors(datum)
            psi = psi_maps(datum)
            assert [m.entries for m in psi_blocks(factors)] == [m.entries for m in psi]
            profiles = [tuple(random_profile(rng, datum.n, allow_zero=True)) for _ in range(3)]
            for profile in profiles + [(0,) * datum.n, (1,) * datum.n]:
                expected = _action(datum, profile)
                # the composed pairing on the restricted purity maps is the action
                action = closed_point_pairing(datum, TraitProfile(profile))
                assert action.matrix.entries == expected.entries, (datum.name, profile)
                assert action_torsion(datum, TraitProfile(profile)) == cokernel(expected)[0]
            # the Hermite row basis of the n·mu-row stack of the psi_i
            assert stack_torsion(datum) == cokernel(row_lattice(LatticeMap.stack(psi)))[0]
            assert exclusive_index(factors) == sum_index(list(exclusive_parts(factors))), \
                datum.name
            checked += 1
        assert checked >= 90

    def test_sp_transpose_is_injective_and_keeps_the_row_lattice(self):
        rng = random.Random(172)
        for datum in _random_datums(rng, 30):
            for (sp, f), m in zip(branch_factors(datum), psi_maps(datum)):
                assert sp.transpose().is_injective()
                # equal canonical (Hermite) bases of the two row lattices
                assert f.transpose().image_basis() == m.transpose().image_basis()


def _row_bases_and_det(factors: Factors) -> tuple[list[LatticeMap], int | None]:
    """The row bases B_i of the f_i, and det B of their stack when it is square."""
    bases = [row_basis(f) for _, f in factors]
    stack = LatticeMap.stack(bases)
    return bases, determinant(stack) if stack.nrows == stack.ncols else None


class TestExclusiveIndex:
    """The adjugate closed form (``oracles.exclusive_index``) against the sum
    index of the leave-one-out kernels, and the star condition from one
    determinant (``oracles.reference_star_condition``) against both (galois
    module docstring)."""

    @staticmethod
    def _compare(factors: Factors, l: int) -> bool:
        """Assert the closed form, the lemma and the star criterion; True when R = mu."""
        mu = factors[0][1].ncols
        reference = sum_index(list(exclusive_parts(factors)))
        assert exclusive_index(factors) == reference
        stacked_rows = sum(psi.rank_of_image() for psi in psi_blocks(factors))
        assert stacked_rows >= mu
        # R > mu forces an infinite index, and R = mu a finite one
        assert (reference is None) == (stacked_rows > mu)
        # the star condition: R = mu and l does not divide |det B| / prod h_i
        assert reference_star_condition(factors, l) == \
            (reference is not None and reference % l != 0)
        return stacked_rows == mu

    def test_matches_leave_one_out_kernels_on_generated_datums(self):
        # star_condition reads the dual purity cokernel; on the factors, the det
        # criterion and the adjugate index (in _compare) must agree with it
        rng = random.Random(161)
        square = wide = dual_checked = 0
        outcomes = {True: 0, False: 0}
        divides_yet_holds = 0
        for gen in (random_datum, random_ta_datum, random_polarized_datum):
            for _ in range(40):
                datum = gen(rng, max_mu=8, max_n=5, min_n=1)
                factors = branch_factors(datum)
                for l in (2, 3, 5):
                    star = reference_star_condition(factors, l)
                    if self._compare(factors, l):
                        square += 1
                        outcomes[star] += 1
                        divides_yet_holds += star and _row_bases_and_det(factors)[1] % l == 0
                    else:
                        wide += 1
                    assert star == decomposition_check(factors, l) == star_condition(datum, l), \
                        (datum.name, l)
                    if datum.polarization is not None:
                        # the dual datum's purity map is P'
                        assert star == is_l_toric_additive(dual_datum(datum), l), (datum.name, l)
                        dual_checked += 1
        # wide: R > mu, where the star condition fails at every l
        assert square > 100 and wide > 100 and dual_checked > 100
        # both verdicts are reached with a square stack, where the determinant
        # decides, and so is l | det B with prod h_i taking its whole l-part
        assert min(outcomes.values()) > 10, outcomes
        assert divides_yet_holds > 10, divides_yet_holds

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(square_maps), st.sampled_from([2, 3, 5]))
    def test_matches_leave_one_out_kernels_on_any_injective_stack(self, maps, l):
        psi = tuple(lm(rows) for rows in maps)
        assume(LatticeMap.stack(list(psi)).is_injective())
        factors = factors_of(psi)
        self._compare(factors, l)
        assert reference_star_condition(factors, l) == decomposition_check(factors, l)

    def test_hand_made_stacks(self):
        # B = diag(2, 3): V_1 = Z·e_1 and V_2 = Z·e_2, index (6/3)·(6/2)/6 = 1
        assert exclusive_index(factors_of((lm([[2, 0], [0, 0]]), lm([[0, 0], [0, 3]])))) == 1
        # B = ((1, 1), (1, -1)): V_1 = Z·(1, 1) and V_2 = Z·(1, -1), index 2
        factors = factors_of((lm([[1, 1]]), lm([[1, -1]])))
        assert exclusive_index(factors) == 2
        assert not reference_star_condition(factors, 2)
        assert reference_star_condition(factors, 3)
        # R = 3 > mu = 2: V_2 = ker psi_1 = 0
        wide = factors_of((LatticeMap.identity(2), lm([[1, 1]])))
        assert exclusive_index(wide) is None
        assert not reference_star_condition(wide, 2)
        self._compare(wide, 2)
        self._compare(factors, 3)
        # f_1 has dependent rows, so its row basis is ((1, 0)): B = ((1, 0), (1, 3))
        # has det 3 with h_i = (1, 1); V_1 = Z·(3, -1) and V_2 = Z·(0, 1) have index 3
        factors = factors_of((lm([[1, 0], [2, 0]]), lm([[1, 3]])))
        for l in (2, 3, 5):
            assert reference_star_condition(factors, l) == (l != 3)
            assert exclusive_index(factors) == 3
            self._compare(factors, l)
        # a square stack of determinant 0 falls back to the row bases, which
        # find it singular
        assert not reference_star_condition(
            factors_of((lm([[1, 1]]), lm([[2, 2]]))), 2)

    def test_det_divisible_by_l_yet_star_holds(self):
        # B = ((2, 2), (0, 3)): det 6, h_1 = 2, h_2 = 3, so |det B| / prod h_i = 1;
        # V_1 = ker B_2 = Z·(1, 0) and V_2 = ker B_1 = Z·(1, -1) span Z^2
        factors = factors_of((lm([[2, 2]]), lm([[0, 3]])))
        bases, det = _row_bases_and_det(factors)
        assert [cokernel(b)[0].order for b in bases] == [2, 3]
        assert exclusive_index(factors) == 1
        for l in (2, 3):
            assert det % l == 0
            assert reference_star_condition(factors, l)
            self._compare(factors, l)
        # B = ((2, 0), (1, 3)): det 6 and h_i = (2, 1), so the quotient 3 fails at 3 only
        factors = factors_of((lm([[2, 0]]), lm([[1, 3]])))
        assert reference_star_condition(factors, 2)
        assert not reference_star_condition(factors, 3)
        for l in (2, 3):
            self._compare(factors, l)


def _on_restricted_purity(datum: DegenDatum, composed) -> bool:
    """Whether both strata bases are the restricted (dual) purity maps themselves."""
    return composed.basis == restricted_purity(datum, composed.active) and \
        composed.dual_basis == restricted_purity(datum, composed.active, dual=True)


def _oracle_eliminations(capsys, intmat_calls, path, argv) -> tuple[int, dict, list]:
    """(exit code, oracle payload, Smith eliminations) of one oracle run; each
    elimination is its (matrix, nrows, ncols)."""
    intmat_calls.clear_all()
    code = cli.main(["oracle", str(path), "--json"] + argv)
    return code, json.loads(capsys.readouterr().out)["oracle"], list(intmat_calls["eliminations"])


class TestSharedCokernel:
    """phi_f = B^t·diag(a_j·phi_j)·B' is the action sum a_j·psi_j entry for
    entry when B and B' are the restricted purity maps, and has its torsion
    on every derived stratum, so the oracle factors it once for both sides
    unless an override gives the stratum."""

    def test_composed_pairing_is_the_action_in_closed_point_coordinates(self):
        rng = random.Random(181)
        kept = moved = 0
        for datum in _random_datums(rng, 150):
            profiles = [tuple(random_profile(rng, datum.n, allow_zero=True)) for _ in range(4)]
            for profile in profiles + [(0,) * datum.n, (1,) * datum.n]:
                composed = compose_trait(datum, TraitProfile(profile))
                # the bases are the strata of the active set
                assert composed.basis == stratum_lattice(datum, composed.active)
                assert composed.dual_basis == stratum_lattice(datum, composed.active, dual=True)
                if _on_restricted_purity(datum, composed):
                    assert composed.matrix == _action(datum, profile), (datum.name, profile)
                    kept += 1
                else:
                    moved += 1
        assert kept > 300 and moved > 100, (kept, moved)

    def test_derived_strata_share_the_torsion_at_size(self):
        """On a Hermite basis of the stratum, sum a_i·psi_i = Q^t·phi_f·Q'
        with Q and Q' onto, so its torsion is the trait group (galois module
        docstring), which the oracle reports for both sides."""
        rng = random.Random(223)
        gens = (random_datum, random_ta_datum, random_polarized_datum)
        cases = Counter()
        for k in range(700):
            datum = gens[k % 3](rng, max_mu=8, max_n=5, min_n=2)
            for _ in range(4):
                profile = TraitProfile(tuple(random_profile(rng, datum.n)))
                composed = compose_trait(datum, profile)
                assert datum.stratum_override(composed.active) is None
                if _on_restricted_purity(datum, composed):
                    continue
                assert action_torsion(datum, profile) == \
                    trait_component_group(datum, composed), (datum.name, profile)
                cases[datum.is_principal] += 1
        assert sum(cases.values()) >= 1000 and cases[False] > 200, cases

    @pytest.mark.parametrize("name", ["example_3_4", "generated_ta_seed7", "product_tate",
                                      "tate_u1u2", "generated_nonta_seed11"])
    def test_all_ones_profile_adds_one_elimination(self, name, capsys, intmat_calls):
        """The profile adds one mu × mu elimination, of phi_f, which the Galois
        side shares; on unimodular strata (a principal toric-additive datum) it adds
        none: the n blocks coker phi_j, r_j × r_j each, are the Smith forms
        that the stack torsion already took."""
        datum = load_fixture(name)
        path = fixture_path(name)
        ones = ",".join(["1"] * datum.n)
        _, _, bare = _oracle_eliminations(capsys, intmat_calls, path, ["--l", "3"])
        code, report, with_profile = _oracle_eliminations(
            capsys, intmat_calls, path, ["--l", "3", "--profile", ones])
        assert code == 0
        added = list((Counter(with_profile) - Counter(bare)).elements())
        phi_f = compose_trait(datum, TraitProfile((1,) * datum.n)).matrix
        if name in ("generated_ta_seed7", "product_tate"):
            assert datum.is_principal and datum.verdict.toric_additive
            blocks = [(b.pairing.entries, b.rank, b.dual_rank) for b in datum.branches]
            purity = purity_matrix(datum)
            assert added == [] and sorted(with_profile) == \
                sorted(blocks + [(purity.entries, purity.nrows, purity.ncols)])
            assert datum.n > 1 and all(m[1] < datum.mu for m in blocks)
            assert report["component_group"]["lattice_side"]["invariant_factors"] == \
                list(l_part(component_group(phi_f), 3).invariant_factors)
        else:
            assert added == [(phi_f.entries, datum.mu, datum.mu)]
            assert len(with_profile) == len(bare) + 1
        group = report["component_group"]
        assert group["lattice_side"] == group["galois_side"]

    def test_override_runs_both_eliminations(self, capsys, intmat_calls, tmp_path):
        # the override widens the stratum over {D1, D2} to Z^2: phi_f = 1, while
        # the action psi_1 + psi_2 = ((4, 2), (2, 2)) has cokernel Z/2 + Z/2
        branches = tuple(Branch(f"D{i + 1}", lm([[1]]), lm([sp], 2))
                         for i, sp in enumerate([[2, 1], [0, 1], [1, 0]]))
        override = StratumOverride((0, 1), LatticeMap.identity(2))
        datum = DegenDatum("three", 0, 0, 2, branches, strata=(override,))
        path = tmp_path / "override.json"
        path.write_text(json.dumps(datum_to_dict(datum)))
        profile = TraitProfile((1, 1, 0))
        composed = compose_trait(datum, profile)
        assert composed.matrix != _action(datum, profile.multiplicities)
        _, _, bare = _oracle_eliminations(capsys, intmat_calls, path, ["--l", "2"])
        code, report, with_profile = _oracle_eliminations(
            capsys, intmat_calls, path, ["--l", "2", "--profile", "1,1,0"])
        assert len(with_profile) == len(bare) + 2
        # the trait group takes the dense path: phi_f is factored itself
        assert (composed.matrix.entries, 2, 2) in with_profile
        group = report["component_group"]
        # the reference: the cokernel of the sum of the products psi_i, at level r
        reference = full_model.mod_lr_quotient(
            _action(datum, profile.multiplicities), LatticeMap.zero(2, 0),
            2 ** group["r"])
        assert group["galois_side"] == {"invariant_factors": list(reference.invariant_factors),
                                        "divisible_rank": 0} == \
            {"invariant_factors": [2, 2], "divisible_rank": 0}
        assert group["lattice_side"]["invariant_factors"] == \
            list(l_part(component_group(composed.matrix), 2).invariant_factors) == []
        # the two sides differ, as the override asks for another stratum
        assert code == 1 and group["agree"] is False

    def test_galois_side_is_the_cokernel_of_the_action(self, capsys, intmat_calls, tmp_path):
        """Profiles with a zero entry, and overrides over every branch: the
        Galois side is the cokernel of sum a_i·psi_i, whose torsion is the
        trait group's on a derived stratum, Hermite basis or not, and which
        is factored on its own only under an override, or not at all where
        the blocks give it, as they give the trait group too: a valid
        override over every branch is unimodular where P and P' are."""
        rng = random.Random(191)
        cases = Counter()
        for k, datum in enumerate(_random_datums(rng, 120)):
            profile = list(random_profile(rng, datum.n, allow_zero=True))
            if datum.is_principal and k % 2:
                # an override over every branch: the purity map in another basis
                u = lm(random_unimodular(rng, datum.mu))
                basis = purity_matrix(datum).compose(u)
                datum = replace(datum, strata=(StratumOverride(tuple(range(datum.n)), basis),))
                profile = [a or 1 for a in profile]
            else:
                profile[rng.randrange(datum.n)] = 0
            path = tmp_path / f"d{k}.json"
            path.write_text(json.dumps(datum_to_dict(datum)))
            argv = ["--l", str(rng.choice((2, 3)))]
            _, _, bare = _oracle_eliminations(capsys, intmat_calls, path, argv)
            _, report, with_profile = _oracle_eliminations(
                capsys, intmat_calls, path, argv + ["--profile", ",".join(map(str, profile))])
            added = list((Counter(with_profile) - Counter(bare)).elements())
            action = _action(datum, tuple(profile))
            blocks = all(profile) and is_onto(datum.purity_cokernel) and \
                is_onto(datum.dual_purity_cokernel)
            composed = compose_trait(datum, TraitProfile(tuple(profile)))
            phi_f = composed.matrix
            # the action is factored on its own only under an override
            shared = datum.stratum_override(composed.active) is None
            # phi_f is the action on the restricted purity maps, and an
            # override's may equal it by chance (mu = 1, say)
            twin = phi_f == action
            assert added.count((action.entries, datum.mu, datum.mu)) == \
                (0 if blocks else (0 if shared else 1) + twin)
            # off the blocks the trait group adds phi_f, shared on a derived
            # stratum, Hermite or not; on them neither side factors anything
            assert len(added) == (0 if blocks else 1 + (0 if shared else 1)), \
                (datum.name, profile)
            if not blocks:
                assert (phi_f.entries, phi_f.nrows, phi_f.ncols) in added
            group = report["component_group"]
            l, r = int(argv[1]), group["r"]
            reference = full_model.mod_lr_quotient(action, kernel_saturated(action), l ** r)
            assert group["galois_side"] == {"invariant_factors": list(reference.invariant_factors),
                                            "divisible_rank": 0}, (datum.name, profile)
            cases[bool(datum.strata), blocks, _on_restricted_purity(datum, composed)] += 1
        # zeros on the restricted purity maps and on Hermite bases, overrides
        # on the blocks and off them
        assert cases[False, False, True] > 10 and cases[False, False, False] > 10, cases
        assert cases[True, True, False] > 5 and cases[True, False, False] > 10, cases


def test_oracle_at_mu_52_within_budget(capsys, tmp_path):
    # 40 branches and a 2,080-row stack of psi_i; Smith forms of the whole
    # stacks, instead of row bases, took several seconds
    datum = random_ta_datum(random.Random(7), max_mu=64, max_n=40, min_n=40)
    assert (datum.mu, datum.n) == (52, 40)
    path = tmp_path / "mu52.json"
    path.write_text(json.dumps(datum_to_dict(datum)))
    argv = ["oracle", str(path), "--l", "3", "--profile", ",".join(["1"] * 40), "--json"]
    with wall_clock_budget(2):
        code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)["oracle"]
    assert code == 0
    assert report["agree"] and report["component_group"]["agree"]


def test_oracle_at_mu_123_within_budget(capsys, tmp_path):
    # 80 branches: n leave-one-out kernels took about 11 s on a 2-vCPU x86
    # container, one adjugate of the stacked row bases about 1.5 s
    datum = random_ta_datum(random.Random(1), max_mu=10 ** 6, max_n=80, min_n=80)
    assert (datum.mu, datum.n) == (123, 80)
    path = tmp_path / "mu123.json"
    path.write_text(json.dumps(datum_to_dict(datum)))
    argv = ["oracle", str(path), "--l", "3", "--profile", ",".join(["1"] * 80), "--json"]
    with wall_clock_budget(5):
        code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)["oracle"]
    assert code == 0
    assert report["agree"] and report["component_group"]["agree"]
    assert report["galois_side"] == {"star_condition": True, "decomposition": True}


def test_oracle_at_mu_242_within_budget(capsys, tmp_path, intmat_calls):
    # 160 branches: the Hermite form of the 38,720-row stack of the psi_i and
    # n scaled adds of mu × mu products took about 11.7 s on a 2-vCPU x86
    # container, the factored rep about 2.5 s, most of it in the adjugate of
    # the star condition; one determinant and one shared cokernel about 0.5 s,
    # and the star condition read off the purity cokernel about 0.1 s
    datum = random_ta_datum(random.Random(1), max_mu=10 ** 6, max_n=160, min_n=160)
    assert (datum.mu, datum.n) == (242, 160)
    path = tmp_path / "mu242.json"
    path.write_text(json.dumps(datum_to_dict(datum)))
    argv = ["oracle", str(path), "--l", "3", "--profile", ",".join(["1"] * 160), "--json"]
    intmat_calls.clear_all()
    with wall_clock_budget(3):
        code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)["oracle"]
    assert code == 0
    assert report["agree"] and report["component_group"]["agree"]
    assert report["galois_side"] == {"star_condition": True, "decomposition": True}
    # no fraction-free pass at all: no determinant, no row basis, no adjugate
    # and no rational solve
    assert not intmat_calls["bareiss"]


def _widened(datum: DegenDatum) -> DegenDatum:
    """The datum with one more branch, specialized by the sum of the purity
    rows: P becomes tall, so the datum is valid but not toric additive."""
    row = [sum(col) for col in zip(*purity_matrix(datum).entries)]
    extra = Branch("E", lm([[3]]), lm([row], datum.mu))
    return replace(datum, branches=datum.branches + (extra,))


def _doubled(datum: DegenDatum) -> DegenDatum | None:
    """The datum with the row r_j of a rank-1 branch replaced by 2·r_j + r_i
    for another rank-1 branch i: still primitive, so sp_j stays onto, while
    P stays square with |det P| = 2.  None without two rank-1 branches."""
    ones = [j for j, b in enumerate(datum.branches) if b.rank == 1]
    if len(ones) < 2:
        return None
    i, j = ones[:2]
    r_i, r_j = datum.branches[i].specialization.entries[0], \
        datum.branches[j].specialization.entries[0]
    sp = lm([[2 * b + a for a, b in zip(r_i, r_j)]], datum.mu)
    branches = list(datum.branches)
    branches[j] = replace(branches[j], specialization=sp)
    return replace(datum, branches=tuple(branches))


class TestOneSmithFormPerPairing:
    """Past the oracle ladder (mu up to 40 and more): the stack torsion, the
    block-path trait group and the scaled pairing cokernels, each read off
    one Smith form per branch pairing, against the Smith forms they replace."""

    @staticmethod
    def _datums(rng: random.Random):
        for _ in range(6):
            big = dict(max_mu=72, max_n=36, min_n=30)
            ta = random_ta_datum(rng, **big)
            yield ta
            yield random_polarized_datum(rng, ta=True, **big)
            yield _widened(ta)
            doubled = _doubled(ta)
            if doubled is not None:
                yield doubled
            yield random_datum(rng, max_mu=12, max_n=6, min_n=3)
            yield random_polarized_datum(rng, max_mu=12, max_n=6, min_n=3)

    def test_stack_torsion_is_the_cokernel_of_the_stacked_f_i(self, intmat_calls):
        paths = Counter()
        for datum in self._datums(random.Random(211)):
            assert not datum.violations, datum.name
            stack = LatticeMap.stack([f for _, f in branch_factors(datum)])
            intmat_calls.clear_all()
            torsion = stack_torsion(datum)
            stacked = (stack.entries, stack.nrows, stack.ncols) in intmat_calls["eliminations"]
            assert torsion == cokernel(stack)[0], datum.name
            unimodular = is_onto(datum.dual_purity_cokernel)
            # the stack is factored exactly where P' is not unimodular
            assert stacked != unimodular, datum.name
            paths[unimodular, datum.is_principal, datum.mu >= 40] += 1
        # blocks on principal and explicit-dual datums of mu >= 40; the stack
        # on tall and on square non-unimodular P', at mu >= 40 too
        assert paths[True, True, True] >= 5 and paths[True, False, True] >= 5, paths
        assert paths[False, True, True] >= 10 and paths[False, False, False] >= 4, paths

    def test_block_path_trait_group_is_the_cokernel_of_phi_f(self):
        rng = random.Random(223)
        count = 0
        for datum in self._datums(rng):
            if not (is_onto(datum.purity_cokernel) and is_onto(datum.dual_purity_cokernel)):
                continue
            for _ in range(3):
                profile = TraitProfile(tuple(rng.randint(1, 5) for _ in range(datum.n)))
                composed = compose_trait(datum, profile)
                group = trait_component_group(datum, composed)
                # the block path never multiplies out phi_f
                assert "matrix" not in vars(composed)
                assert group == component_group(composed.matrix), (datum.name, profile)
                count += 1
        assert count >= 18

    def test_scaled_pairing_cokernel_is_the_cokernel_of_the_scaled_pairing(self):
        rng = random.Random(227)
        for _ in range(120):
            k = rng.randint(1, 8)
            phi = lm(random_spd(rng, k))
            datum = DegenDatum("one", 0, 0, k,
                               (Branch("D1", phi, LatticeMap.identity(k)),))
            for a in (1, 2, 3, 4, 6, 12):
                assert datum.pairing_cokernel(0, a) == cokernel(phi.scaled(a))[0], (phi, a)
