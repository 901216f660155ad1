"""Trait composition, component groups, and the closed-point bound."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from itertools import combinations

import pytest

from degenkit import cli, degeneration
from degenkit.degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    is_onto,
    pairing_violation,
    restricted_purity,
)
from degenkit.errors import InputError
from degenkit.generators import (
    random_datum,
    random_polarized_datum,
    random_profile,
    random_ta_datum,
    random_unimodular,
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
from degenkit.neron import converse_inputs_from_datum
from degenkit.schema import datum_to_dict

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


def _three_branch(strata=()) -> DegenDatum:
    """A non-toric-additive datum with three rank-1 branches over Z^2."""
    branches = tuple(Branch(f"D{i + 1}", Lattice(1), lm([[1]]), lm([sp], source=2))
                     for i, sp in enumerate([[2, 1], [0, 1], [1, 0]]))
    return DegenDatum("three", 0, 0, Lattice(2), branches, strata=tuple(strata))


class TestStratumLattice:
    def test_full_subset_is_closed_point(self, example_3_4):
        data = stratum_lattice(example_3_4, (0, 1))
        assert data.inclusion.ncols == 2
        assert data.inclusion.entries == ((2, 1), (0, 1))
        # the projection X -> Y is the identity in closed-point coordinates
        assert data.closed_point_coordinates
        assert data.inclusion.solve(restricted_purity(example_3_4, (0, 1))).entries == \
            ((1, 0), (0, 1))
        assert not data.heuristic  # the deepest stratum is stored, not derived

    def test_ta_datum_gives_full_blocks(self, product_tate):
        data = stratum_lattice(product_tate, (0,))
        assert data.inclusion.ncols == 1
        assert data.inclusion.entries == ((1,),)
        assert data.inclusion.solve(restricted_purity(product_tate, (0,))).entries == ((1, 0),)

    def test_empty_subset(self, example_3_4):
        data = stratum_lattice(example_3_4, ())
        assert data.inclusion.ncols == 0

    def test_heuristic_flag_on_proper_subset(self):
        # non-TA datum with three branches: intermediate strata are derived
        datum = _three_branch()
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
        assert composed.stratum.inclusion.ncols == 1
        assert composed.stratum.inclusion.entries == ((1,),)
        assert composed.matrix.entries == ((1,),)

    def test_all_zero_profile_warns(self, example_3_4):
        composed = compose_trait(example_3_4, TraitProfile((0, 0)))
        assert TRAIT_MISSES_DIVISOR in composed.warnings
        assert component_group(composed.matrix).is_trivial

    def test_heuristic_warning_surfaces(self):
        datum = _three_branch()
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

    def test_an_override_over_every_branch_takes_the_blocks(self, product_tate, intmat_calls):
        # a valid override over every branch is injective and contains
        # im P = ⊕X_j where P is onto, so it is square and unimodular:
        # phi_f = B^t·diag(a_j·phi_j)·B' has the block cokernel, though the
        # stratum basis is no longer the purity map, and no mu × mu
        # elimination runs
        override = StratumOverride((0, 1), lm([[1, 1], [0, 1]]))
        datum = DegenDatum(product_tate.name, 0, 0, product_tate.closed_point,
                           product_tate.branches, strata=(override,))
        cases = [(datum, (2, 3))]
        rng = random.Random(199)
        for k in range(120):
            make = random_ta_datum if k % 2 else \
                (lambda rng, **kw: random_polarized_datum(rng, ta=True, **kw))
            datum = _with_override(rng, make(rng, max_mu=8, max_n=5, min_n=2), every=True)
            cases.append((datum, tuple(rng.randint(1, 4) for _ in range(datum.n))))
        for datum, profile in cases:
            assert not datum.violations and _unimodular_purity(datum)
            composed = compose_trait(datum, TraitProfile(profile))
            assert not composed.stratum.closed_point_coordinates
            intmat_calls.clear_all()
            group = trait_component_group(datum, composed)
            shapes = [(nrows, ncols) for _, nrows, ncols in intmat_calls["eliminations"]]
            assert (datum.mu, datum.mu) not in shapes, (datum.name, profile)
            assert "matrix" not in vars(composed)
            assert group == component_group(composed.matrix) == \
                FinAb.direct_sum([component_group(b.pairing.scaled(a))
                                  for b, a in zip(datum.branches, profile)])
        assert sum(not datum.is_principal for datum, _ in cases) > 50


def _with_override(rng: random.Random, datum: DegenDatum, every: bool = False) -> DegenDatum:
    """The datum with a valid override over a random nonempty branch subset
    (every branch when asked): the image basis of the restricted (dual)
    purity map in a random unimodular change of basis."""
    if every:
        active = tuple(range(datum.n))
    else:
        active = tuple(sorted(rng.sample(range(datum.n), rng.randint(1, datum.n))))

    def basis(dual: bool) -> LatticeMap:
        h = restricted_purity(datum, active, dual).image_basis()
        return h.compose(lm(random_unimodular(rng, h.ncols), h.ncols, h.ncols))

    dual_inclusion = None if datum.is_principal else basis(True)
    return replace(datum, strata=(StratumOverride(active, basis(False), dual_inclusion),))


def _contract_datums(product_tate: DegenDatum) -> list[DegenDatum]:
    """Random datums from every generator, half of them with an override,
    and the fixed override datums."""
    rng = random.Random(211)
    gens = (random_datum, random_ta_datum, random_polarized_datum,
            lambda rng, **kw: random_polarized_datum(rng, ta=True, **kw))
    datums = []
    for k in range(160):
        datum = gens[k % 4](rng, max_mu=5, max_n=4, min_n=1)
        datums.append(_with_override(rng, datum) if k % 8 >= 4 else datum)
    datums.append(_three_branch([StratumOverride((0, 1), LatticeMap.identity(2))]))
    datums.append(replace(product_tate, strata=(StratumOverride((0, 1), lm([[1, 1], [0, 1]])),)))
    return datums


class TestStratumContract:
    """A stratum is its basis: an override's inclusion as given, else the
    restricted (dual) purity map in closed-point coordinates, else the
    Hermite basis of its image.  Each is injective and contains the restricted
    image, which ``stratum_lattice`` no longer checks by a solve."""

    def test_every_subset_of_every_datum(self, product_tate):
        kinds = {"override": 0, "closed point": 0, "hermite": 0}
        for datum in _contract_datums(product_tate):
            assert not datum.violations, datum.name
            for size in range(datum.n + 1):
                for active in combinations(range(datum.n), size):
                    for dual in (False, True):
                        stratum = stratum_lattice(datum, active, dual)
                        restricted = restricted_purity(datum, active, dual)
                        inc = stratum.inclusion
                        assert stratum.active == active and inc.is_injective()
                        override = datum.stratum_override(active)
                        if override is not None:
                            assert inc in (override.inclusion, override.dual_inclusion)
                            kinds["override"] += 1
                        elif stratum.closed_point_coordinates:
                            assert inc == restricted
                            kinds["closed point"] += 1
                        else:
                            assert inc == restricted.image_basis()
                            kinds["hermite"] += 1
                        q = inc.solve(restricted)
                        assert q is not None and inc.compose(q) == restricted
            if datum.n > 1:
                # converse's Q: inclusion ∘ Q = restricted purity on the rest
                rest = tuple(range(1, datum.n))
                _, q_map, _, _ = converse_inputs_from_datum(datum)
                assert stratum_lattice(datum, rest).inclusion.compose(q_map) == \
                    restricted_purity(datum, rest)
        assert min(kinds.values()) > 40, kinds

    def test_an_invalid_datum_is_refused(self):
        # an override that misses the restricted purity image, and one with
        # no dual inclusion on a non-principal datum: validation refuses both
        missing = _three_branch([StratumOverride((0, 1), lm([[3, 0], [0, 1]]))])
        datum = random_polarized_datum(random.Random(3), max_mu=3, max_n=2, min_n=2)
        k = datum.branches[1].lattice.rank
        no_dual = replace(datum, strata=(StratumOverride((1,), LatticeMap.identity(k)),))
        for bad, active in ((missing, (0, 1)), (no_dual, (1,))):
            assert bad.violations
            for dual in (False, True):
                with pytest.raises(InputError, match="invalid degeneration datum"):
                    stratum_lattice(bad, active, dual)


@pytest.fixture
def solves(monkeypatch):
    """The ``LatticeMap.solve`` calls made outside ``validate``; those made
    under it are counted under ``validating``."""
    calls = {"outside": 0, "validating": 0}
    depth = [0]
    validate, solve = degeneration.validate, LatticeMap.solve

    def validating(datum):
        depth[0] += 1
        try:
            return validate(datum)
        finally:
            depth[0] -= 1

    def solving(self, b):
        calls["validating" if depth[0] else "outside"] += 1
        return solve(self, b)

    monkeypatch.setattr(degeneration, "validate", validating)
    monkeypatch.setattr(LatticeMap, "solve", solving)
    return calls


def test_trait_and_oracle_solve_nothing_and_converse_once(capsys, tmp_path, product_tate,
                                                         solves):
    # partial profiles, the override's own subset and every branch; off
    # closed-point coordinates converse solves for Q once
    rng = random.Random(223)
    ok = {"trait": 0, "oracle": 0, "converse": 0}
    converse_solved = validated = 0
    for k, datum in enumerate(_contract_datums(product_tate)[::2]):
        path = tmp_path / f"d{k}.json"
        path.write_text(json.dumps(datum_to_dict(datum)))
        profiles = [random_profile(rng, datum.n, allow_zero=True), [1] * datum.n]
        if datum.strata:
            active = datum.strata[0].branches
            profiles.append([int(j in active) for j in range(datum.n)])
        argvs = [["trait", str(path), "--profile", ",".join(map(str, p))] for p in profiles]
        argvs += [["oracle", str(path), "--l", "2", "--profile", ",".join(map(str, p))]
                  for p in profiles]
        argvs.append(["converse", str(path)])
        for argv in argvs:
            solves["outside"] = solves["validating"] = 0
            code = cli.main(argv)
            capsys.readouterr()
            ok[argv[0]] += code == 0
            validated += solves["validating"]
            if argv[0] == "converse":
                assert solves["outside"] <= 1, argv
                converse_solved += solves["outside"]
            else:
                assert solves["outside"] == 0, argv
    assert min(ok.values()) > 30 and converse_solved > 10 and validated > 30, \
        (ok, converse_solved, validated)


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
