"""Trait composition, component groups, and the closed-point bound."""

from __future__ import annotations

import random

import pytest

from degenkit.degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    is_onto,
    pairing_violation,
)
from degenkit.errors import InputError
from degenkit.generators import (
    random_datum,
    random_polarized_datum,
    random_profile,
    random_ta_datum,
)
from degenkit.lattice import FinAb, Lattice, LatticeMap, l_part
from degenkit.monodromy import (
    HEURISTIC_STRATUM,
    TRAIT_MISSES_DIVISOR,
    TraitProfile,
    compose_trait,
    stratum_lattice,
    trait_component_group,
)

from oracles import (
    add_maps,
    closed_point_bound,
    component_group,
    determinant,
    enumerate_qz_kernel,
    psi_maps,
)


def lm(rows, source=None, target=None):
    return LatticeMap.from_rows(rows, source_rank=source, target_rank=target)


class TestStratumLattice:
    def test_full_subset_is_closed_point(self, example_3_4):
        data = stratum_lattice(example_3_4, (0, 1))
        assert data.lattice.rank == 2
        assert data.inclusion.entries == ((2, 1), (0, 1))
        assert data.projection.entries == ((1, 0), (0, 1))
        assert not data.heuristic  # the deepest stratum is stored, not derived

    def test_ta_datum_gives_full_blocks(self, product_tate):
        data = stratum_lattice(product_tate, (0,))
        assert data.lattice.rank == 1
        assert data.inclusion.entries == ((1,),)
        assert data.projection.entries == ((1, 0),)

    def test_empty_subset(self, example_3_4):
        data = stratum_lattice(example_3_4, ())
        assert data.lattice.rank == 0

    def test_heuristic_flag_on_proper_subset(self):
        # non-TA datum with three branches: intermediate strata are derived
        branches = tuple(
            Branch(f"D{i}", Lattice(1), lm([[1]]), lm([sp], source=2))
            for i, sp in enumerate([[2, 1], [0, 1], [1, 0]]))
        datum = DegenDatum("three", 0, 0, Lattice(2), branches)
        assert stratum_lattice(datum, (0, 1)).heuristic
        assert not stratum_lattice(datum, (0, 1, 2)).heuristic


class TestComposeTrait:
    def test_example_3_4_family_at_1_1(self, example_3_4):
        composed = compose_trait(example_3_4, TraitProfile((1, 1)))
        assert composed.matrix.entries == ((4, 2), (2, 2))

    def test_example_3_4_family_at_2_3(self, example_3_4):
        composed = compose_trait(example_3_4, TraitProfile((2, 3)))
        assert composed.matrix.entries == ((8, 4), (4, 5))

    def test_single_active_branch(self, example_3_4):
        composed = compose_trait(example_3_4, TraitProfile((1, 0)))
        assert composed.stratum.lattice.rank == 1
        assert composed.stratum.inclusion.entries == ((1,),)
        assert composed.matrix.entries == ((1,),)

    def test_all_zero_profile_warns(self, example_3_4):
        composed = compose_trait(example_3_4, TraitProfile((0, 0)))
        assert TRAIT_MISSES_DIVISOR in composed.warnings
        assert component_group(composed.matrix).is_trivial

    def test_heuristic_warning_surfaces(self):
        branches = tuple(
            Branch(f"D{i}", Lattice(1), lm([[1]]), lm([sp], source=2))
            for i, sp in enumerate([[2, 1], [0, 1], [1, 0]]))
        datum = DegenDatum("three", 0, 0, Lattice(2), branches)
        composed = compose_trait(datum, TraitProfile((1, 1, 0)))
        assert HEURISTIC_STRATUM in composed.warnings

    def test_bilinearity_in_profile(self):
        rng = random.Random(31)
        for _ in range(30):
            datum = random_datum(rng, max_mu=3, max_n=3, min_n=1)
            a = random_profile(rng, datum.n)
            b = [rng.randint(1, 3) for _ in range(datum.n)]
            a = [x if x else 1 for x in a]  # keep the active sets equal
            summed = [x + y for x, y in zip(a, b)]
            m1 = compose_trait(datum, TraitProfile(tuple(a))).matrix
            m2 = compose_trait(datum, TraitProfile(tuple(b))).matrix
            m12 = compose_trait(datum, TraitProfile(tuple(summed))).matrix
            assert add_maps(m1, m2).entries == m12.entries

    def test_depends_only_on_tuple(self, example_3_4):
        # recomputing through a freshly constructed equal datum changes nothing
        clone = DegenDatum(example_3_4.name, 0, 0, example_3_4.closed_point,
                           example_3_4.branches)
        for profile in [(1, 1), (3, 2), (0, 1)]:
            assert compose_trait(example_3_4, TraitProfile(profile)).matrix.entries == \
                compose_trait(clone, TraitProfile(profile)).matrix.entries


class TestComponentGroup:
    def test_multiplication_by_m(self):
        for m in (1, 2, 7):
            expected = FinAb((m,)) if m > 1 else FinAb()
            assert component_group(lm([[m]])) == expected

    def test_composed_pairing_4_2_2_2(self):
        # frozen from the gcd/det oracle: gcd = 2, det = 4 -> diag(2, 2)
        assert component_group(lm([[4, 2], [2, 2]])) == FinAb((2, 2))

    def test_identity_trivial(self):
        assert component_group(LatticeMap.identity(3)).is_trivial

    def test_rejects_degenerate(self):
        with pytest.raises(InputError, match="degenerate pairing"):
            component_group(lm([[0]]))
        with pytest.raises(InputError, match="degenerate pairing"):
            component_group(lm([[1, 0]], target=1))

    def test_order_equals_det(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 3)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m = lm(rows)
            if determinant(m) == 0:
                continue
            assert component_group(m).order == abs(determinant(m))


def _unimodular_purity(datum: DegenDatum) -> bool:
    """Both purity maps onto, hence unimodular, as validation found them injective."""
    return is_onto(datum.purity_cokernel) and is_onto(datum.dual_purity_cokernel)


class TestTraitComponentGroup:
    """The block lemma: with every branch active and both purity maps
    unimodular, coker phi_f = ⊕ coker(a_j·phi_j); elsewhere phi_f is factored."""

    def test_blocks_agree_with_the_composed_pairing(self, intmat_calls):
        rng = random.Random(193)
        gens = (random_ta_datum, random_ta_datum, random_datum,
                lambda rng, **kw: random_polarized_datum(rng, ta=True, **kw))
        paths = {}
        for k in range(240):
            datum = gens[k % 4](rng, max_mu=8, max_n=5, min_n=1)
            # the blocks take one Smith form per pairing phi_j and datum, and
            # read every coker(a_j·phi_j) off its diagonal
            pairings = [b.pairing.entries for b in datum.branches]
            for profile in (tuple(random_profile(rng, datum.n, allow_zero=True)),
                            tuple(rng.randint(1, 3) for _ in range(datum.n))):
                composed = compose_trait(datum, TraitProfile(profile))
                intmat_calls.clear_all()
                group = trait_component_group(datum, composed)
                factored = [args[0] for args in intmat_calls["eliminations"]]
                unimodular = _unimodular_purity(datum)
                blocks = all(profile) and unimodular
                if blocks:
                    assert factored == pairings
                    pairings = []
                else:
                    assert factored == [composed.matrix.entries]
                assert group == component_group(composed.matrix), (datum.name, profile)
                case = (blocks, datum.is_principal, unimodular, 0 in profile, max(profile) > 1)
                paths[case] = paths.get(case, 0) + 1
        assert sum(paths.values()) >= 300
        blocks = {case: count for case, count in paths.items() if case[0]}
        # multiplicities 2-3 and all ones, principal and explicit-dual datums
        # on the blocks; zeros and non-unimodular purity maps on the dense path
        assert sum(c for case, c in blocks.items() if case[4]) > 100, paths
        assert sum(c for case, c in blocks.items() if not case[4]) > 10, paths
        assert sum(c for case, c in blocks.items() if not case[1]) > 50, paths
        assert sum(c for case, c in paths.items() if case[3] and case[2]) > 50, paths
        assert sum(c for case, c in paths.items() if not case[2]) > 50, paths

    def test_explicit_dual_unimodular_strata_take_the_blocks(self, intmat_calls):
        # P and P' unimodular on an explicit-dual datum: ⊕ coker(a_j·phi_j),
        # with no mu × mu elimination and phi_f never multiplied out
        rng = random.Random(197)
        for _ in range(200):
            datum = random_polarized_datum(rng, ta=True, max_mu=8, max_n=5, min_n=2)
            assert not datum.is_principal and _unimodular_purity(datum)
            profile = TraitProfile(tuple(rng.randint(1, 4) for _ in range(datum.n)))
            composed = compose_trait(datum, profile)
            intmat_calls.clear_all()
            group = trait_component_group(datum, composed)
            shapes = [(nrows, ncols) for _, nrows, ncols in intmat_calls["eliminations"]]
            assert (datum.mu, datum.mu) not in shapes, (datum.name, profile)
            assert "matrix" not in vars(composed)
            assert group == component_group(composed.matrix), (datum.name, profile)

    def test_an_override_over_every_branch_is_factored(self, product_tate):
        # a unimodular override U: phi_f = U^t·diag(phi_j)·U has the block
        # cokernel, but the stratum basis is no longer the purity map
        override = StratumOverride((0, 1), lm([[1, 1], [0, 1]]))
        datum = DegenDatum(product_tate.name, 0, 0, product_tate.closed_point,
                           product_tate.branches, strata=(override,))
        composed = compose_trait(datum, TraitProfile((2, 3)))
        assert not composed.stratum.closed_point_coordinates
        assert trait_component_group(datum, composed) == component_group(composed.matrix) == \
            FinAb.direct_sum([component_group(b.pairing.scaled(a))
                              for b, a in zip(datum.branches, (2, 3))])


class TestClosedPointBound:
    def test_n1_equality(self):
        datum = DegenDatum("one", 0, 0, Lattice(1),
                           (Branch("D1", Lattice(1), lm([[3]]), lm([[1]])),))
        assert closed_point_bound(datum, 3) == FinAb((3,))
        assert closed_point_bound(datum, 2).is_trivial
        # for n = 1, sp and sp' are unimodular: the bound is the l-part of
        # coker phi_1, with no divisible part
        rng = random.Random(23)
        for k in range(80):
            make = random_polarized_datum if k % 2 else random_datum
            datum = make(rng, max_mu=4, max_n=1, min_n=1)
            l = (2, 3, 5)[k % 3]
            assert closed_point_bound(datum, l) == \
                l_part(component_group(datum.branches[0].pairing), l)

    def test_n0_trivial(self):
        datum = DegenDatum("empty", 0, 0, Lattice(0), ())
        assert closed_point_bound(datum, 5).is_trivial

    def test_example_3_4_psi_maps(self, example_3_4):
        psis = psi_maps(example_3_4)
        assert psis[0].entries == ((4, 2), (2, 1))
        assert psis[1].entries == ((0, 0), (0, 1))

    def test_example_3_4_bound_at_two(self, example_3_4):
        # frozen from the (1/16)Z/Z grid enumeration of the stacked kernel
        assert enumerate_qz_kernel([[4, 2], [2, 1], [0, 0], [0, 1]], 16) == [2]
        assert closed_point_bound(example_3_4, 2) == FinAb((2,))

    def test_rejects_residue_char(self, example_3_4):
        datum = DegenDatum("p2", 0, 2, example_3_4.closed_point, example_3_4.branches)
        with pytest.raises(InputError, match="residue characteristic"):
            closed_point_bound(datum, 2)


class TestValidatePairing:
    """phi∘lam symmetric positive definite, as validation checks it."""

    def test_ok(self):
        assert pairing_violation(lm([[1]]).compose(LatticeMap.identity(1))) is None

    def test_not_symmetric(self):
        assert pairing_violation(lm([[1, 2], [0, 1]]).compose(LatticeMap.identity(2))) \
            == "not symmetric"

    def test_not_positive_definite(self):
        # second leading minor is 1 - 4 = -3
        assert pairing_violation(lm([[1, 2], [2, 1]]).compose(LatticeMap.identity(2))) \
            == "not positive definite"
