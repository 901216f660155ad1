"""Schema round-trips, located matrix-entry errors, explicit stratum overrides,
and residue-char gating."""

from __future__ import annotations

import json
import re

import pytest

from degenkit import schema
from degenkit.degeneration import (
    Branch,
    DegenDatum,
    StratumOverride,
    analyze,
    restricted_purity,
    validate,
)
from degenkit.errors import InputError
from degenkit.generators import random_graph, random_polarized_datum, random_ta_datum
from degenkit.lattice import Lattice, LatticeMap
from degenkit.monodromy import TraitProfile, compose_trait, stratum_lattice
from degenkit.schema import datum_to_dict, graph_to_dict, parse_document

from conftest import fixture_path


def lm(rows, source=None, target=None):
    return LatticeMap.from_rows(rows, source_rank=source, target_rank=target)


def three_branch_datum(strata=()):
    branches = tuple(
        Branch(f"D{i + 1}", Lattice(1), lm([[1]]), lm([sp], source=2))
        for i, sp in enumerate([[2, 1], [0, 1], [1, 0]]))
    return DegenDatum("three", 0, 0, Lattice(2), branches, strata=tuple(strata))


class TestRoundTrip:
    def test_datum_round_trip(self):
        import random
        rng = random.Random(8)
        for _ in range(10):
            datum = random_polarized_datum(rng, max_mu=3, max_n=3, min_n=1)
            back = parse_document(datum_to_dict(datum))
            assert back == datum

    def test_ta_datum_round_trip(self):
        import random
        rng = random.Random(9)
        for _ in range(10):
            datum = random_ta_datum(rng, min_n=1)
            assert parse_document(datum_to_dict(datum)) == datum

    def test_graph_round_trip(self):
        import random
        rng = random.Random(10)
        for _ in range(10):
            graph = random_graph(rng)
            assert parse_document(graph_to_dict(graph)) == graph


class TestStratumOverride:
    def test_override_replaces_derived_stratum(self):
        # the derived stratum over {D1, D2} is the index-2 image of the
        # restricted purity map; the override widens it to the full lattice
        override = StratumOverride((0, 1), lm([[1, 0], [0, 1]]))
        datum = three_branch_datum([override])
        assert validate(datum) == []
        data = stratum_lattice(datum, (0, 1))
        assert data.inclusion is override.inclusion and not data.closed_point_coordinates
        assert data.inclusion.entries == ((1, 0), (0, 1))
        # the projection X -> Y solves inclusion ∘ Q = restricted purity
        assert data.inclusion.solve(restricted_purity(datum, (0, 1))).entries == \
            ((2, 1), (0, 1))
        derived = stratum_lattice(three_branch_datum(), (0, 1))
        assert derived.closed_point_coordinates
        assert derived.inclusion == restricted_purity(three_branch_datum(), (0, 1))
        assert derived.inclusion.entries != data.inclusion.entries

    def test_override_changes_composed_pairing(self):
        # with the saturated override the pairing is the plain block diagonal;
        # the derived image stratum instead carries the closed-point matrix
        override = StratumOverride((0, 1), lm([[1, 0], [0, 1]]))
        with_override = compose_trait(three_branch_datum([override]),
                                      TraitProfile((1, 1, 0)))
        without = compose_trait(three_branch_datum(), TraitProfile((1, 1, 0)))
        assert with_override.matrix.entries == ((1, 0), (0, 1))
        assert without.matrix.entries == ((4, 2), (2, 2))

    def test_override_must_contain_the_image(self):
        # a sublattice missing the restricted purity image is rejected
        override = StratumOverride((0, 1), lm([[3, 0], [0, 1]]))
        datum = three_branch_datum([override])
        violations = [str(v) for v in validate(datum)]
        assert any("stratum override" in v for v in violations)

    def test_override_parses_from_json(self):
        doc = {
            "format_version": "1", "kind": "degeneration", "name": "three",
            "closed_point": {"rank": 2},
            "branches": [
                {"name": "D1", "rank": 1, "pairing": [[1]], "specialization": [[2, 1]]},
                {"name": "D2", "rank": 1, "pairing": [[1]], "specialization": [[0, 1]]},
                {"name": "D3", "rank": 1, "pairing": [[1]], "specialization": [[1, 0]]},
            ],
            "strata": [{"branches": ["D1", "D2"],
                        "inclusion": [[1, 0], [0, 1]]}],
        }
        datum = parse_document(doc)
        assert datum.strata[0].branches == (0, 1)
        assert stratum_lattice(datum, (0, 1)).inclusion is datum.strata[0].inclusion


class TestResidueCharGating:
    def test_failing_primes_exclude_p(self):
        # same lattices as example_3_4 but in residue characteristic 2:
        # the cokernel torsion is a 2-group, so no failing prime is reported
        branches = (
            Branch("D1", Lattice(1), lm([[1]]), lm([[2, 1]], source=2)),
            Branch("D2", Lattice(1), lm([[1]]), lm([[0, 1]], source=2)),
        )
        datum = DegenDatum("p2", 0, 2, Lattice(2), branches)
        verdict = analyze(datum)
        assert not verdict.toric_additive
        assert verdict.failing_primes == ()
        assert verdict.purity_torsion.invariant_factors == (2,)

    def test_interrogating_p_is_rejected(self):
        branches = (
            Branch("D1", Lattice(1), lm([[1]]), lm([[1]], source=1)),
        )
        datum = DegenDatum("p3", 0, 3, Lattice(1), branches)
        from degenkit.degeneration import is_l_toric_additive
        with pytest.raises(InputError):
            is_l_toric_additive(datum, 3)
        assert is_l_toric_additive(datum, 2)


class TestPermutationInvariance:
    def test_inactive_branch_order_is_immaterial(self):
        # swapping the two inactive branches leaves phi_f untouched
        def datum(order):
            sps = {"A": [1, 0], "B": [0, 1], "C": [1, 1]}
            branches = tuple(
                Branch(name, Lattice(1), lm([[1]]), lm([sps[name]], source=2))
                for name in order)
            return DegenDatum("perm", 0, 0, Lattice(2), branches)

        first = datum(["A", "B", "C"])
        second = datum(["A", "C", "B"])
        # the active branch is A in both; B and C are inactive and permuted
        m1 = compose_trait(first, TraitProfile((2, 0, 0))).matrix
        m2 = compose_trait(second, TraitProfile((2, 0, 0))).matrix
        assert m1.entries == m2.entries


def one_branch_doc(pairing):
    return {"format_version": "1", "kind": "degeneration", "name": "one",
            "closed_point": {"rank": 2},
            "branches": [{"name": "D1", "rank": 2, "pairing": pairing,
                          "specialization": [[1, 0], [0, 1]]}]}


class TestMatrixEntries:
    @pytest.mark.parametrize("bad, message", [
        (True, "expected an integer, got a boolean"),
        (2.0, "expected an integer, got float"),
        ("two", "not an integer string: 'two'"),
        # int() reads these four, so a stray blank or underscore would change
        # the number instead of being refused
        ("1_0", "not an integer string: '1_0'"),
        (" 2", "not an integer string: ' 2'"),
        ("2 ", "not an integer string: '2 '"),
        ("\u0663", "not an integer string: '\u0663'"),
        ("+", "not an integer string: '+'"),
        (None, "expected an integer, got NoneType"),
    ])
    def test_bad_entry_is_located(self, bad, message):
        with pytest.raises(InputError) as info:
            parse_document(one_branch_doc([[2, 1], [bad, 2]]))
        assert str(info.value) == f"input.branches[0].pairing[1][0]: {message}"

    def test_row_of_ints_and_big_integer_strings(self):
        big = 10 ** 40 + 1
        datum = parse_document(one_branch_doc([[big, 0], [str(big), -3]]))
        assert datum.branches[0].pairing.entries == ((big, 0), (big, -3))
        datum = parse_document(one_branch_doc([["+2", "-0"], ["007", "-3"]]))
        assert datum.branches[0].pairing.entries == ((2, 0), (7, -3))

    def test_rows_of_plain_ints_are_not_parsed_entry_by_entry(self, monkeypatch):
        located = []
        original = schema._int

        def counting(value, where):
            located.append(where)
            return original(value, where)

        monkeypatch.setattr(schema, "_int", counting)
        doc = json.loads(fixture_path("example_3_4").read_text())
        datum = parse_document(doc)
        entries = sum(b.pairing.nrows * b.pairing.ncols
                      + b.specialization.nrows * b.specialization.ncols
                      for b in datum.branches)
        assert entries > len(located)
        assert not [w for w in located if re.search(r"\[\d+\]\[\d+\]$", w)]
