"""Degeneration data model, validation, and toric-additivity verdicts."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from degenkit import cli
from degenkit.degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    analyze,
    is_l_toric_additive,
    toric_rank_profile,
    Violation,
    validate,
)
from degenkit.errors import InputError
from degenkit.generators import random_datum, random_polarized_datum, random_ta_datum
from degenkit.intmat import bareiss_det
from degenkit.lattice import FinAb, Lattice, LatticeMap
from degenkit.schema import datum_to_dict

from conftest import load_fixture
from oracles import (
    closed_polarization,
    dual_datum,
    dual_purity_matrix,
    purity_matrix,
    reference_validate,
    sub_datum,
)


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


def _rows(m):
    return [list(r) for r in m.entries]


def _explicit_pols(datum):
    """Branch polarizations with the principal defaults written out."""
    if datum.branch_polarizations is not None:
        return list(datum.branch_polarizations)
    return [LatticeMap.identity(b.lattice.rank) for b in datum.branches]


def _explicit_dual(datum, polarized):
    """The same datum with its dual side (and, if asked, its polarizations)
    spelled out, so that either side can be changed alone."""
    if not datum.is_principal:
        return datum
    return replace(datum, dual_closed_point=datum.closed_point,
                   dual_specializations=tuple(b.specialization for b in datum.branches),
                   polarization=LatticeMap.identity(datum.mu) if polarized else None,
                   branch_polarizations=tuple(_explicit_pols(datum)) if polarized else None)


def _with_pairing(datum, k, rows):
    b = datum.branches[k]
    branches = list(datum.branches)
    branches[k] = replace(b, pairing=LatticeMap.from_rows(
        rows, source_rank=b.dual_rank, target_rank=b.lattice.rank))
    return replace(datum, branches=tuple(branches))


def _asymmetric(rng, datum, k):
    rows = _rows(datum.branches[k].pairing)
    if len(rows) > 1:
        rows[0][1] += rng.choice([-1, 1])
    else:
        rows[0][0] = -rows[0][0]
    return _with_pairing(datum, k, rows)


def _indefinite(rng, datum, k):
    return _with_pairing(datum, k, _rows(datum.branches[k].pairing.scaled(-rng.randint(1, 2))))


def _singular_pairing(rng, datum, k):
    rows = _rows(datum.branches[k].pairing)
    rows[-1] = [0] * len(rows[-1])
    if rng.random() < 0.5:
        for row in rows:
            row[-1] = 0
    return _with_pairing(datum, k, rows)


def _singular_polarization(rng, datum, k):
    if rng.random() < 0.3 and datum.dual_closed.rank == datum.mu:
        rows = _rows(closed_polarization(datum) or LatticeMap.identity(datum.mu))
        rows[rng.randrange(len(rows))] = [0] * datum.mu
        return replace(datum, polarization=LatticeMap.from_rows(rows, source_rank=datum.mu))
    pols = _explicit_pols(datum)
    rows = _rows(pols[k])
    rows[rng.randrange(len(rows))] = [0] * len(rows[0])
    pols[k] = LatticeMap.from_rows(rows, source_rank=pols[k].ncols, target_rank=len(rows))
    return replace(datum, branch_polarizations=tuple(pols))


def _noncommuting_polarization(rng, datum, k):
    if rng.random() < 0.5 and datum.dual_closed.rank == datum.mu:
        closed = closed_polarization(datum) or LatticeMap.identity(datum.mu)
        return replace(datum, polarization=closed.scaled(2))
    pols = _explicit_pols(datum)
    pols[k] = pols[k].scaled(rng.choice([-1, 2]))
    return replace(datum, branch_polarizations=tuple(pols))


def _nonsquare_pairing(rng, datum, k):
    """X'_k one rank larger: the pairing gets a zero column, so it is not
    injective, while phi_k∘lambda_k, with lambda_k extended by a zero row,
    stays what it was."""
    polarized = rng.random() < 0.75
    datum = _explicit_dual(datum, polarized)
    b = datum.branches[k]
    pairing = LatticeMap.from_rows([row + [0] for row in _rows(b.pairing)],
                                   source_rank=b.dual_rank + 1, target_rank=b.lattice.rank)
    branches = list(datum.branches)
    branches[k] = replace(b, pairing=pairing)
    sps = list(datum.dual_specializations)
    extra = [rng.randint(-1, 1) for _ in range(datum.dual_closed.rank)]
    sps[k] = LatticeMap.from_rows(_rows(sps[k]) + [extra], source_rank=datum.dual_closed.rank)
    pols = datum.branch_polarizations
    if pols is not None:
        pols = list(pols)
        pols[k] = LatticeMap.from_rows(_rows(pols[k]) + [[0] * b.lattice.rank],
                                       source_rank=b.lattice.rank)
        pols = tuple(pols)
    return replace(datum, branches=tuple(branches), dual_specializations=tuple(sps),
                   branch_polarizations=pols)


def _noninjective_purity(rng, datum, k):
    """A zero column on every specialization, primal or dual."""
    dual = rng.random() < 0.5
    if dual:
        datum = _explicit_dual(datum, rng.random() < 0.5)
        width = datum.dual_closed.rank + 1
        sps = tuple(LatticeMap.from_rows([row + [0] for row in _rows(sp)], source_rank=width,
                                         target_rank=sp.nrows)
                    for sp in datum.dual_specializations)
        pol = datum.polarization
        if pol is not None:
            pol = LatticeMap.from_rows(_rows(pol) + [[0] * pol.ncols], source_rank=pol.ncols)
        return replace(datum, dual_closed_point=Lattice(width), dual_specializations=sps,
                       polarization=pol)
    width = datum.mu + 1
    branches = tuple(replace(b, specialization=LatticeMap.from_rows(
        [row + [0] for row in _rows(b.specialization)], source_rank=width,
        target_rank=b.lattice.rank)) for b in datum.branches)
    pol = datum.polarization
    if pol is not None:
        pol = LatticeMap.from_rows([row + [0] for row in _rows(pol)], source_rank=width,
                                   target_rank=pol.nrows)
    return replace(datum, closed_point=Lattice(width), branches=branches, polarization=pol)


def _bad_override(rng, datum, k):
    active = tuple(sorted(rng.sample(range(datum.n), rng.randint(1, datum.n))))
    amb = sum(datum.branches[j].lattice.rank for j in active)
    damb = sum(datum.branches[j].dual_rank for j in active)
    kind = rng.randrange(5)
    dual = None
    if kind == 0:
        inc = LatticeMap.identity(amb + 1)
    elif kind == 1:
        inc = LatticeMap.zero(Lattice(1), Lattice(amb))
    elif kind == 2:
        inc = LatticeMap.identity(amb).scaled(2)
    else:
        # the identity fails exactly when the restricted purity has rank < amb
        inc = LatticeMap.identity(amb)
        if kind == 4:
            dual = LatticeMap.identity(damb + rng.randint(0, 1))
    return replace(datum, strata=(StratumOverride(active, inc, dual),))


MUTATIONS = (_asymmetric, _indefinite, _singular_pairing, _singular_polarization,
             _noncommuting_polarization, _nonsquare_pairing, _noninjective_purity,
             _bad_override)


@pytest.mark.parametrize("make", [random_datum, random_ta_datum, random_polarized_datum],
                         ids=lambda f: f.__name__)
def test_validate_matches_reference_on_mutations(make):
    # the skipped checks are decided by identities; a reference that runs
    # every one of them must list the same violations in the same order
    rng = random.Random(811)
    compared = invalid = 0
    for _ in range(40):
        datum = make(rng, max_mu=4, max_n=3, min_n=1)
        cases = [datum]
        for _ in range(6):
            mutated = datum
            for _ in range(rng.randint(1, 2)):
                try:
                    mutated = rng.choice(MUTATIONS)(rng, mutated, rng.randrange(datum.n))
                except InputError:
                    break
            cases.append(mutated)
        for case in cases:
            expected = reference_validate(case)
            assert validate(case) == expected, case
            assert [str(v) for v in validate(case)] == [str(v) for v in expected]
            compared += 1
            invalid += bool(expected)
    assert compared == 280 and invalid > 150


def test_nonsquare_pairing_with_definite_composite_is_not_injective():
    # phi : Z^2 -> Z^1 and lambda : Z^1 -> Z^2 compose to [1], but phi kills e_2
    datum = DegenDatum(
        "wide", 0, 0, Lattice(1),
        (Branch("D1", Lattice(1), LatticeMap.from_rows([[1, 0]]), LatticeMap.from_rows([[1]])),),
        dual_closed_point=Lattice(1),
        dual_specializations=(LatticeMap.from_rows([[1], [0]]),),
        polarization=LatticeMap.identity(1),
        branch_polarizations=(LatticeMap.from_rows([[1], [0]]),))
    messages = [v.invariant for v in validate(datum)]
    assert messages == ["dual specialization not surjective", "branch dual rank mismatch",
                        "pairing not injective"]
    assert validate(datum) == reference_validate(datum)


def _override_on_branch_2(dual_inclusion=None):
    datum = random_polarized_datum(random.Random(3), max_mu=3, max_n=2, min_n=2)
    assert not datum.is_principal
    k = datum.branches[1].lattice.rank
    return replace(datum, strata=(
        StratumOverride((1,), LatticeMap.identity(k), dual_inclusion),))


def test_validate_refuses_an_override_without_dual_inclusion(tmp_path, capsys):
    # only a principal datum lets the primal inclusion serve the dual side;
    # validate accepted this one, and `trait` then exited 2 on its own
    datum = _override_on_branch_2()
    expected = [Violation("stratum override invalid",
                          detail="no dual inclusion on a non-principal datum")]
    assert validate(datum) == reference_validate(datum) == expected
    path = tmp_path / "override.json"
    path.write_text(json.dumps(datum_to_dict(datum)))
    for argv in (["analyze"], ["trait", "--profile", "0,1"]):
        assert cli.main([argv[0], str(path), *argv[1:]]) == 2
        assert "no dual inclusion on a non-principal datum" in capsys.readouterr().err
    # an identity dual inclusion contains every restricted dual purity image
    k = datum.branches[1].dual_rank
    assert validate(_override_on_branch_2(LatticeMap.identity(k))) == []


def test_validate_refuses_a_dual_override_that_misses_the_dual_purity_image():
    datum = _override_on_branch_2()
    k = datum.branches[1].dual_rank
    doubled = _override_on_branch_2(LatticeMap.identity(k).scaled(2))
    # the dual specialization is surjective, so some entry is odd
    assert any(v % 2 for row in datum.dual_sp(1).entries for v in row)
    expected = [Violation("stratum override invalid",
                          detail="restricted dual purity does not factor through "
                                 "the dual override")]
    assert validate(doubled) == reference_validate(doubled) == expected


def test_validate_reads_surjectivity_off_an_onto_purity_map(intmat_calls):
    # an onto purity map P makes each sp_i = pi_i ∘ P onto, so validate's one
    # elimination per purity map is all it takes; elsewhere each sp_i is
    # eliminated on its own, and the list is the reference's either way
    rng = random.Random(813)
    seen = {True: 0, False: 0}
    for k in range(60):
        make = (random_ta_datum, random_datum,
                lambda rng, **kw: random_polarized_datum(rng, ta=True, **kw))[k % 3]
        datum = replace(make(rng, max_mu=6, max_n=4, min_n=1))     # no memo yet
        intmat_calls.clear_all()
        assert validate(datum) == []
        eliminated = [args[0] for args in intmat_calls["eliminations"]]
        purities = [purity_matrix(datum).entries]
        if not datum.is_principal:
            purities.append(dual_purity_matrix(datum).entries)
        onto = datum.verdict.toric_additive
        if onto:
            assert eliminated == purities, datum.name
        else:
            assert eliminated[0] == purities[0] and len(eliminated) == 1 + datum.n
        assert validate(datum) == reference_validate(datum)
        seen[onto] += 1
    assert min(seen.values()) > 15, seen


def test_validate_multiplies_and_ranks_no_identity(intmat_calls):
    rng = random.Random(812)
    datums = [load_fixture(name) for name in ("example_3_4", "tate_u1u2", "product_tate")]
    datums += [random_datum(rng, max_mu=4, max_n=3, min_n=1) for _ in range(20)]
    datums += [random_ta_datum(rng, max_mu=4, max_n=3, min_n=1) for _ in range(20)]

    def is_identity(m, n):
        return all(m[i][j] == (i == j) for i in range(n) for j in range(n))

    intmat_calls.clear_all()
    for datum in datums:
        assert validate(datum) == []
    assert not [args for args in intmat_calls["rank"]
                if args[1] == args[2] and is_identity(args[0], args[1])]
    assert not [args for args in intmat_calls["matmul"]
                if (args[1] == args[2] and is_identity(args[0], args[1]))
                or (args[4] == args[5] and is_identity(args[3], args[4]))]


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
