"""CLI dispatch, exit codes, golden reports, and determinism."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenkit import cli, degeneration, monodromy, neron
from degenkit.curves import CurveReport
from degenkit.lattice import MILLER_RABIN_BOUND, FinAb, LatticeMap, cokernel, l_part
from degenkit.monodromy import TraitProfile
from degenkit.schema import parse_document

from oracles import branch_factors, purity_matrix, trait_surjectivity_check
from test_intmat import wall_clock_budget

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_golden_cases() -> dict[str, list[str]]:
    """The argv lists behind tests/golden/, from scripts/make_goldens.py."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_goldens.py"
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


GOLDEN_CASES = _load_golden_cases()


def test_golden_cases_match_golden_files():
    assert sorted(GOLDEN_CASES) == sorted(p.stem for p in GOLDEN.glob("*.json"))


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports(capsys, name):
    code, out, err = run_cli(capsys, GOLDEN_CASES[name])
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_parser_is_built_once_and_commands_resolve_per_call(capsys, monkeypatch):
    builds = []
    original = cli.build_parser

    def counting():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert run_cli(capsys, ["analyze", "example_3_4"])[0] == 0
        # a command replaced after the parser exists is the one that runs
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: 7)
        assert run_cli(capsys, ["analyze", "example_3_4"])[0] == 7
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


COMMANDS = ["analyze", "trait", "oracle", "converse", "psi", "curve", "generate"]
DISPATCH_CASES = [
    ["analyze", "example_3_4"],
    ["analyze", "--json", "example_3_4"],
    ["analyze", "example_3_4", "--js"],
    ["analyze", "--", "example_3_4"],
    ["trait", "example_3_4", "--profile", "1,1", "--l", "2", "--json"],
    ["trait", "--l", "3", "--json", "--profile", "2,3", "example_3_4"],
    ["trait", "--profile=1,2", "example_3_4"],
    ["oracle", "example_3_4", "--l", "2", "--r", "5", "--profile", "1,1"],
    ["oracle", "--json", "--profile", "1,2", "--r", "3", "example_3_4", "--l=3"],
    ["oracle", "example_3_4", "--l", "2", "--prof", "1,1"],
    ["converse", "generated_ta_seed7", "--json"],
    ["converse", "--json", "generated_ta_seed7"],
    ["psi", "example_3_4", "--kummer", "2,3"],
    ["psi", "--kummer", "2,3", "--json", "example_3_4"],
    ["curve", "genus2_graph"],
    ["curve", "--json", "genus2_graph"],
    ["generate", "datum", "--seed", "5"],
    ["generate", "--seed", "5", "--out", "x.json", "graph"],
    # refusals: a missing required option or file, an unknown option, an
    # extra argument, a bad integer or choice, an unknown command, help
    ["trait", "example_3_4"],
    ["oracle", "example_3_4", "--profile", "1,1"],
    ["generate", "datum"],
    ["analyze"],
    ["analyze", "example_3_4", "--bogus"],
    ["psi", "example_3_4", "--kummer", "2,3", "extra", "--more"],
    ["oracle", "example_3_4", "--l", "two"],
    ["trait", "example_3_4", "--profile", "1,1", "--l", "2.5"],
    ["oracle", "example_3_4", "--l", "0_3"],
    ["oracle", "example_3_4", "--l", " 2"],
    ["oracle", "example_3_4", "--l"],
    ["generate", "lattice", "--seed", "1"],
    ["analyse", "example_3_4"],
    ["--json", "analyze", "example_3_4"],
    [],
    ["-h"],
    ["analyze", "-h"],
]


def _parse_outcome(capsys, parse):
    """(namespace as a dict, or the exit code; stdout; stderr) of one parse."""
    try:
        result = parse()
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_CASES, ids=lambda argv: " ".join(argv) or "(none)")
def test_dispatch_matches_argparse(capsys, monkeypatch, argv):
    # main hands a known command's arguments to that command's parser alone;
    # the namespace, or the exit code and the printed text, are the full parser's
    parsed = []
    for name in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", parsed.append)
    expected = _parse_outcome(capsys, lambda: vars(cli.build_parser().parse_args(argv)))
    actual = _parse_outcome(capsys, lambda: cli.main(argv) or vars(parsed.pop()))
    assert actual == expected
    assert not parsed


def test_a_known_command_skips_the_full_parser(capsys, monkeypatch):
    def refuse(argv=None, namespace=None):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    assert run_cli(capsys, ["analyze", "example_3_4", "--json"])[0] == 0
    with pytest.raises(AssertionError):
        cli.main([])


def test_module_entry_point(tmp_path):
    # python -m degenkit.cli reads its arguments from sys.argv
    env = {k: v for k, v in os.environ.items() if k != "DEGENKIT_FIXTURES"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "degenkit.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=120)

    done = run("analyze", "example_3_4", "--json")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "analyze_example_3_4.json").read_bytes()
    done = run()
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"usage: degenkit [-h]")
    assert done.stderr.endswith(b"degenkit: error: the following arguments are required: command\n")


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["oracle", "example_3_4", "--l", "2", "--r", "4", "--profile", "1,1", "--json"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


@pytest.mark.parametrize("argv, expected", [
    (["analyze", "example_3_4"], 1),
    (["trait", "example_3_4", "--profile", "1,1", "--l", "2"], 1),
    (["oracle", "example_3_4", "--l", "2", "--profile", "1,1"], 1),
    (["converse", "example_3_4"], 1),
    (["psi", "example_3_4"], 1),
    (["psi", "example_3_4", "--kummer", "2,3"], 1),   # the rescaled one is valid by construction
    (["curve", "genus2_graph"], 1),
])
def test_each_datum_is_validated_once(capsys, monkeypatch, argv, expected):
    calls = []
    original = degeneration.validate

    def counting(datum):
        calls.append(datum)
        return original(datum)

    monkeypatch.setattr(degeneration, "validate", counting)
    code, _, err = run_cli(capsys, argv)
    assert code == 0, err
    assert len(calls) == expected


def test_psi_kummer_factors_each_pairing_once_per_datum(capsys, intmat_calls, example_3_4):
    # purity, each specialization's surjectivity (the purity map of
    # example_3_4 is not onto, so each sp_i is tested on its own) and the two
    # branch pairings; the rescaled groups coker(m_i·phi_i) are the
    # pairings' Smith diagonals scaled by m_i
    code, out, err = run_cli(capsys, ["psi", "example_3_4", "--kummer", "2,3", "--json"])
    assert code == 0, err
    expected = [purity_matrix(example_3_4).entries]
    expected += [b.specialization.entries for b in example_3_4.branches]
    expected += [b.pairing.entries for b in example_3_4.branches]
    assert sorted(args[0] for args in intmat_calls.smith_forms()) == sorted(expected)
    rescaled = FinAb.direct_sum([cokernel(b.pairing.scaled(m))[0]
                                 for b, m in zip(example_3_4.branches, (2, 3))])
    kummer = json.loads(out)["psi"]["kummer"]
    assert kummer["rescaled_psi"]["invariant_factors"] == list(rescaled.invariant_factors)


def test_trait_surjectivity_factors_composed_pairing_once(intmat_calls):
    datum = parse_document({
        "format_version": "1", "kind": "degeneration", "name": "d248",
        "closed_point": {"rank": 3},
        "branches": [{"name": "D1", "rank": 3,
                      "pairing": [[2, 0, 0], [0, 4, 0], [0, 0, 8]],
                      "specialization": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}],
    })
    result = trait_surjectivity_check(datum, TraitProfile((1,)))
    assert result.surjective
    assert result.upsilon == FinAb((2, 4, 8))
    # purity, the composed pairing, the branch pairing, and whether B^t is
    # onto, which is read off one more Smith diagonal
    assert len(intmat_calls.smith_forms()) == 4


@pytest.mark.parametrize("name, eliminations", [("generated_ta_seed7", 3), ("product_tate", 3)])
def test_converse_certificate_needs_no_smith_form(capsys, intmat_calls, name, eliminations):
    # validation (the purity cokernel, which is 0, so no specialization is
    # tested on its own), then the two cokernels: validation proved P and Q
    # onto, and the certified path reads its splitting off A^-1
    code, out, err = run_cli(capsys, ["converse", name, "--json"])
    assert code == 0, err
    payload = json.loads(out)["converse"]
    assert payload["verdict"] == "TA-certified"
    assert len(intmat_calls["eliminations"]) == eliminations
    p_map, q_map, psi1, psi2 = neron.converse_inputs_from_datum(cli._load(name, "degeneration")[0])
    at_psi = LatticeMap.stack([p_map, q_map]).transpose().compose(
        LatticeMap.block_diagonal([psi1, psi2]))
    assert payload["coker_at_psi"]["invariant_factors"] == \
        list(cokernel(at_psi)[0].invariant_factors)


@pytest.mark.parametrize("name", ["generated_ta_seed7", "product_tate", "example_3_4"])
def test_converse_decides_definiteness_only_in_validation(capsys, monkeypatch, name):
    # validation proves Psi1 and Psi2 positive definite (Psi2 = B^t·blocks·B
    # with B injective), so every Sylvester pass is one of validate's, one
    # per polarized branch
    callers = []
    original = degeneration.intmat.positive_definite

    def counting(m, n):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append("validate" in names)
        return original(m, n)

    monkeypatch.setattr(degeneration.intmat, "positive_definite", counting)
    code, _, err = run_cli(capsys, ["converse", name, "--json"])
    assert code == 0, err
    datum = cli._load(name, "degeneration")[0]
    assert callers == [True] * datum.n


def test_converse_tests_the_q_of_an_override(capsys, tmp_path):
    # the override on {D2, D3} is I_2, which contains the image of the
    # restricted purity map R = ((1, 1), (1, -1)), so the datum is valid; but
    # Q = R has det -2, and only an override's Q can fail to be onto
    doc = tmp_path / "override_q.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "degeneration", "name": "override_q",
        "closed_point": {"rank": 2},
        "branches": [{"name": f"D{i + 1}", "rank": 1, "pairing": [[1]],
                      "specialization": [sp]}
                     for i, sp in enumerate([[1, 0], [1, 1], [1, -1]])],
        "strata": [{"branches": ["D2", "D3"], "inclusion": [[1, 0], [0, 1]]}],
    }))
    code, _, err = run_cli(capsys, ["analyze", str(doc)])
    assert code == 0, err
    code, out, err = run_cli(capsys, ["converse", str(doc)])
    assert (code, out) == (2, "")
    assert err == "error: P and Q must be surjective\n"


def test_empty_lists_on_a_zero_branch_datum(capsys, tmp_path):
    # the one profile of a datum without branches is the empty one
    doc = tmp_path / "bare.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "degeneration", "name": "bare",
        "closed_point": {"rank": 0}, "branches": [],
    }))
    for argv in (["trait", str(doc), "--profile", ""],
                 ["oracle", str(doc), "--l", "2", "--profile", ""],
                 ["psi", str(doc), "--kummer", ""]):
        code, _, err = run_cli(capsys, argv)
        assert code == 0, (argv, err)
    code, out, err = run_cli(capsys, ["trait", "example_3_4", "--profile", ""])
    assert (code, out, err) == (2, "", "error: --profile: expected 2 entries, got 0\n")


def test_converse_decides_a_square_a_in_one_bareiss_pass(capsys, intmat_calls):
    # coker(A^t·Psi·A) decides injectivity; |det A| = 1 and theta = A^-1 are one pass
    p_map, q_map, _, _ = neron.converse_inputs_from_datum(
        cli._load("generated_ta_seed7", "degeneration")[0])
    a = LatticeMap.stack([p_map, q_map])
    assert a.nrows == a.ncols
    intmat_calls.clear_all()
    code, out, err = run_cli(capsys, ["converse", "generated_ta_seed7", "--json"])
    assert code == 0, err
    assert json.loads(out)["converse"]["verdict"] == "TA-certified"
    assert sum(args[0] == a.entries for args in intmat_calls["bareiss"]) == 1


@pytest.mark.parametrize("extra", [[], ["--kummer", "2"]])
def test_psi_of_a_semiprime_pairing_within_budget(capsys, tmp_path, extra):
    # (2^31 - 1)·(2^61 - 1): trial division up to its smaller prime factor
    # did not finish in 20 s when Psi was assembled prime by prime
    order = (2 ** 31 - 1) * (2 ** 61 - 1)
    doc = tmp_path / "semiprime.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "degeneration", "name": "semiprime",
        "closed_point": {"rank": 1},
        "branches": [{"name": "D1", "rank": 1, "pairing": [[str(order)]],
                      "specialization": [[1]]}],
    }))
    with wall_clock_budget(2):
        code, out, err = run_cli(capsys, ["psi", str(doc), "--json"] + extra)
    assert code == 0, err
    payload = json.loads(out)["psi"]
    assert payload["psi"]["invariant_factors"] == [order]
    if extra:
        assert payload["kummer"]["rescaled_psi"]["invariant_factors"] == [2 * order]


def test_a_61_bit_prime_is_proven_within_budget(capsys, tmp_path):
    # trial division up to the square root of 2^61 - 1 ran past 30 s for both
    # the residue characteristic and --l
    doc = json.loads(cli.resolve_input("example_3_4").read_text())
    doc["residue_char"] = 2 ** 61 - 1
    path = tmp_path / "p61.json"
    path.write_text(json.dumps(doc))
    with wall_clock_budget(1):
        code, out, err = run_cli(capsys, ["analyze", str(path), "--json"])
    assert code == 0, err
    assert json.loads(out)["verdict"]["failing_primes"] == [2]
    with wall_clock_budget(1):
        code, out, err = run_cli(capsys, ["oracle", "example_3_4", "--l", str(2 ** 61 - 1),
                                          "--json"])
    assert code == 0, err
    assert json.loads(out)["oracle"]["agree"]


def test_primality_beyond_the_proven_range_is_refused(capsys, tmp_path):
    # Miller-Rabin on the first 13 prime bases decides primality only below
    # MILLER_RABIN_BOUND, the least composite that passes all of them
    doc = json.loads(cli.resolve_input("example_3_4").read_text())
    doc["residue_char"] = MILLER_RABIN_BOUND
    path = tmp_path / "psp.json"
    path.write_text(json.dumps(doc))
    for argv in (["analyze", str(path)], ["oracle", "example_3_4", "--l", str(2 ** 89 - 1)]):
        with wall_clock_budget(1):
            code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert f"proven only below {MILLER_RABIN_BOUND}" in err


def test_abelian_rank_never_reaches_a_matrix(capsys, intmat_calls, tmp_path):
    doc = json.loads(cli.resolve_input("example_3_4").read_text())
    shapes = []
    for alpha in (0, 40):
        path = tmp_path / f"alpha{alpha}.json"
        path.write_text(json.dumps(dict(doc, abelian_rank=alpha)))
        intmat_calls.clear_all()
        code, _, err = run_cli(capsys, ["oracle", str(path), "--l", "2", "--profile", "1,1"])
        assert code == 0, err
        shapes.append(sorted((nrows, ncols) for _, nrows, ncols in intmat_calls.smith_forms()))
    assert shapes[0] == shapes[1]


def test_trait_factors_the_purity_matrix_once(capsys, intmat_calls, example_3_4):
    # validate, the verdict and both strata over every branch read one SNF
    purity = purity_matrix(example_3_4).entries
    code, _, err = run_cli(capsys, ["trait", "example_3_4", "--profile", "1,1"])
    assert code == 0, err
    factored = [name for name in ("invariant_factors", "rank", "hnf_columns")
                for args in intmat_calls[name] if args[0] == purity]
    assert factored == ["invariant_factors"]


def test_oracle_factors_the_psi_stack_once(capsys, intmat_calls):
    # the closed-point bound is read off the rep's stack torsion, the
    # cokernel of the stacked f_i = phi_i·sp'_i, which have the row lattice
    # of the stacked psi_i, with no Hermite form of the n·mu rows of that
    # stack.  Where the dual purity map P' is unimodular (generated_ta_seed7)
    # it is ⊕ coker phi_i, one Smith form per pairing and none of the stack;
    # elsewhere (generated_nonta_seed11) the stack is factored once
    for name, stack_forms in (("generated_ta_seed7", 0), ("generated_nonta_seed11", 1)):
        datum = cli._load(name, "degeneration")[0]
        stack = LatticeMap.stack([f for _, f in branch_factors(datum)])
        intmat_calls.clear_all()
        code, out, err = run_cli(capsys, ["oracle", name, "--l", "2", "--json"])
        assert code == 0, err
        assert intmat_calls["hnf_columns"] == []
        forms = [args[0] for args in intmat_calls.smith_forms()]
        assert forms.count(stack.entries) == stack_forms
        pairings = [b.pairing.entries for b in datum.branches]
        assert sum(forms.count(entries) for entries in set(pairings)) == \
            (len(pairings) if stack_forms == 0 else 0)
        bound = l_part(cokernel(stack)[0], 2)
        assert json.loads(out)["oracle"]["closed_point"]["bound"]["invariant_factors"] == \
            list(bound.invariant_factors)


@pytest.mark.parametrize("argv, l", [
    (["oracle", "example_3_4"], 0),
    (["oracle", "example_3_4", "--profile", "1,1"], 1),
    (["trait", "example_3_4", "--profile", "1,1"], 1),
    (["trait", "example_3_4", "--profile", "1,1"], 0),
])
def test_an_l_that_is_no_prime_is_named_so(capsys, argv, l):
    # residue characteristic 0: l = 0 used to be refused as "prime equals
    # residue characteristic", before anything tested that l is prime
    code, out, err = run_cli(capsys, argv + ["--l", str(l)])
    assert code == 2 and out == ""
    assert err == f"error: l must be prime, got {l}\n"


def test_oracle_forms_no_phi_f_and_no_f_i(capsys, intmat_calls):
    # principal and toric additive: the stack torsion and the trait group
    # are read off the pairings, and both strata keep closed-point
    # coordinates, so the action is shared: neither phi_f = P^t·M·P nor any
    # f_i = phi_i·sp'_i is multiplied out, and no other product either
    datum = cli._load("generated_ta_seed7", "degeneration")[0]
    intmat_calls.clear_all()
    code, out, err = run_cli(capsys, ["oracle", "generated_ta_seed7", "--l", "2",
                                      "--profile", ",".join(["1"] * datum.n), "--json"])
    assert code == 0, err
    assert json.loads(out)["oracle"]["component_group"]["agree"]
    assert intmat_calls["matmul"] == []


@pytest.mark.parametrize("name", sorted(n for n, argv in GOLDEN_CASES.items()
                                        if argv[0] != "curve"))
def test_trait_prints_the_multiplied_out_phi_f_on_every_golden(capsys, name):
    # phi_f is multiplied out when first read; trait prints the product
    # B^t·diag(a_j·phi_j)·B' of the two strata bases, and the trait goldens
    # keep theirs
    argv = GOLDEN_CASES[name]
    datum = cli._load(argv[1], "degeneration")[0]
    profiles = [(1,) * datum.n, tuple(range(2, datum.n + 2))]
    if argv[0] == "trait":
        profiles.append(tuple(map(int, argv[argv.index("--profile") + 1].split(","))))
    for profile in profiles:
        code, out, err = run_cli(capsys, ["trait", argv[1], "--json", "--profile",
                                          ",".join(map(str, profile))])
        assert code == 0, err
        composed = monodromy.compose_trait(datum, TraitProfile(profile))
        middle = LatticeMap.block_diagonal([datum.branches[j].pairing.scaled(profile[j])
                                            for j in composed.active])
        expected = composed.basis.transpose().compose(middle).compose(composed.dual_basis)
        assert json.loads(out)["trait"]["phi_f"] == [list(row) for row in expected.entries]
    if argv[0] == "trait":
        golden = json.loads((GOLDEN / f"{name}.json").read_text())["trait"]["phi_f"]
        assert golden == [list(row) for row in expected.entries]


def test_oracle_without_branches(capsys, tmp_path):
    doc = tmp_path / "bare.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "degeneration", "name": "bare",
        "closed_point": {"rank": 0}, "branches": [],
    }))
    code, out, err = run_cli(capsys, ["oracle", str(doc), "--l", "2", "--json"])
    assert code == 0, err
    closed = json.loads(out)["oracle"]["closed_point"]
    assert closed["bound"] == {"divisible_rank": 0, "invariant_factors": []}
    assert closed["exact_torsion"] == closed["bound"]
    assert closed["bound_is_strict"] is False


def test_oracle_runs_no_bareiss_pass(capsys, intmat_calls):
    # the star condition reads the purity cokernel that validation factored,
    # with no determinant of the stacked f_i and no row basis
    code, _, err = run_cli(capsys, ["oracle", "generated_ta_seed7", "--l", "3"])
    assert code == 0, err
    assert intmat_calls["bareiss"] == []


def test_unpolarized_dual_side_decides_the_star_condition(capsys, tmp_path):
    # P = I_2, while P' = ((1, 1), (1, -1)) has det -2, and with no
    # polarization nothing ties P' to P: the star condition, which is P'
    # being l-toric additive, and the lattice side, which reads P, would
    # answer for unrelated maps, so the oracle refuses the datum at every l
    doc = tmp_path / "unpolarized.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "degeneration", "name": "unpolarized",
        "closed_point": {"rank": 2},
        "branches": [{"name": f"D{i + 1}", "rank": 1, "pairing": [[1]], "specialization": [sp]}
                     for i, sp in enumerate([[1, 0], [0, 1]])],
        "dual": {"closed_point": {"rank": 2},
                 "branches": [{"rank": 1, "specialization": [sp]} for sp in ([1, 1], [1, -1])]},
    }))
    for l in (2, 3):
        code, out, err = run_cli(capsys, ["oracle", str(doc), "--l", str(l),
                                          "--profile", "1,1", "--json"])
        assert code == 2 and out == ""
        assert "polarizations" in err
    # the other subcommands read P alone and still answer
    code, _, err = run_cli(capsys, ["trait", str(doc), "--profile", "1,1"])
    assert code == 0, err


def _two_branch_document(pairing: int, dual: bool) -> dict:
    """P = I_2 with 1 × 1 pairings (pairing, 1); with ``dual`` an explicit
    dual side P' = ((1, 1), (1, -1)) that no polarization ties to P."""
    doc = {
        "format_version": "1", "kind": "degeneration", "name": "faults",
        "closed_point": {"rank": 2},
        "branches": [{"name": f"D{i + 1}", "rank": 1, "pairing": [[phi]], "specialization": [sp]}
                     for i, (phi, sp) in enumerate([(pairing, [1, 0]), (1, [0, 1])])],
    }
    if dual:
        doc["dual"] = {"closed_point": {"rank": 2},
                       "branches": [{"rank": 1, "specialization": [sp]}
                                    for sp in ([1, 1], [1, -1])]}
    return doc


NOT_PRIME = "l must be prime, got 4"
INVALID = "invalid degeneration datum: pairing not injective [branch 1]"
UNTIED = "an explicit dual side needs the closed-point and branch polarizations"


@pytest.mark.parametrize("l, pairing, dual, message", [
    (4, 1, False, NOT_PRIME),
    (3, 0, False, INVALID),
    (3, 1, True, UNTIED),
    (4, 0, False, NOT_PRIME),
    (4, 1, True, NOT_PRIME),
    (3, 0, True, INVALID),
    (4, 0, True, NOT_PRIME),
])
def test_oracle_refuses_in_order(capsys, tmp_path, l, pairing, dual, message):
    # a non-prime l, then an invalid datum, then an untied dual side: the
    # first fault is the one named, before any report is written
    doc = tmp_path / "faults.json"
    doc.write_text(json.dumps(_two_branch_document(pairing, dual)))
    for extra in ([], ["--profile", "1,1"]):
        code, out, err = run_cli(capsys, ["oracle", str(doc), "--l", str(l), *extra])
        assert code == 2 and out == "" and err.startswith(f"error: {message}"), err
        assert err.count("\n") == 1


class TestOracleLevels:
    """Both finite-level comparisons run at one level derived from the lattice side."""

    def test_profile_level_follows_lattice_exponent(self, capsys):
        code, out, err = run_cli(capsys, ["oracle", "example_3_4", "--l", "2",
                                          "--profile", "32,1", "--json"])
        assert code == 0, err
        group = json.loads(out)["oracle"]["component_group"]
        assert group["r"] == 7
        assert group["lattice_side"]["invariant_factors"] == [128]
        assert group["galois_side"]["invariant_factors"] == [128]
        assert group["agree"] is True

    def test_closed_point_level_follows_bound_exponent(self, capsys, tmp_path):
        doc = tmp_path / "two20.json"
        doc.write_text(json.dumps({
            "format_version": "1", "kind": "degeneration", "name": "two20",
            "closed_point": {"rank": 1},
            "branches": [{"name": "D1", "rank": 1, "pairing": [[2 ** 20]],
                          "specialization": [[1]]}],
        }))
        code, out, err = run_cli(capsys, ["oracle", str(doc), "--l", "2", "--json"])
        assert code == 0, err
        closed = json.loads(out)["oracle"]["closed_point"]
        assert closed["r_used"] == 20
        assert closed["exact_torsion"]["invariant_factors"] == [2 ** 20]
        assert closed["bound_is_strict"] is False

    def test_a_large_level_within_budget(self, capsys):
        # l^r is never formed at the asked level: 3^(3·10^7) alone took about a minute
        argv = ["oracle", "example_3_4", "--l", "3", "--profile", "243,1", "--json"]
        with wall_clock_budget(2):
            code, out, err = run_cli(capsys, argv + ["--r", "100000000"])
        assert code == 0, err
        high = json.loads(out)["oracle"]
        assert high["component_group"].pop("r") == high["closed_point"].pop("r_used") == 10 ** 8
        # the same groups as at the derived levels: phi_f = ((972, 486), (486, 244))
        low = json.loads(run_cli(capsys, argv)[1])["oracle"]
        assert (low["component_group"].pop("r"), low["closed_point"].pop("r_used")) == (5, 4)
        assert high == low
        assert high["component_group"]["galois_side"]["invariant_factors"] == [243]

    def test_galois_side_growing_past_the_level_is_a_disagreement(self, capsys, monkeypatch):
        # equal to the lattice side, Z/2 + Z/2, at the derived level 4 only
        monkeypatch.setattr(cli.galois, "torsion_phi_group",
                            lambda torsion, l, r: FinAb((2, 2 ** (r - 3))))
        code, out, _ = run_cli(capsys, ["oracle", "example_3_4", "--l", "2",
                                        "--profile", "1,1", "--json"])
        assert code == 1
        report = json.loads(out)
        assert report["oracle"]["component_group"]["agree"] is False
        assert any("falsification" in w for w in report["warnings"])


def test_human_and_json_numerics_agree(capsys):
    _, human, _ = run_cli(capsys, ["analyze", "example_3_4"])
    _, as_json, _ = run_cli(capsys, ["analyze", "example_3_4", "--json"])
    report = json.loads(as_json)
    assert "failing_primes: [2]" in human
    assert report["verdict"]["failing_primes"] == [2]
    assert "invariant_factors: [2]" in human
    assert report["purity_cokernel"]["invariant_factors"] == [2]



def _human_lines(report: dict, prefix: str = "") -> list[tuple[str, object]]:
    """The human rendering of a JSON report, one (text before the value,
    value) pair per line; the value is None on a line that opens an object."""
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append((f"{prefix}{key}:", None))
            lines.extend(_human_lines(value, prefix + "  "))
        else:
            lines.append((f"{prefix}{key}: ", value))
    return lines


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_human_rendering_of_every_golden(capsys, name):
    # without --json the same report prints one line per key, its golden
    # value after the key, and each group's divisible rank as a 0
    argv = [arg for arg in GOLDEN_CASES[name] if arg != "--json"]
    assert argv != GOLDEN_CASES[name]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    lines = out.splitlines()
    expected = _human_lines(golden)
    assert len(lines) == len(expected)
    for line, (head, value) in zip(lines, expected):
        if value is None:
            assert line == head
        else:
            assert line.startswith(head), (line, head)
            rest = line[len(head):]
            assert rest == value if isinstance(value, str) else json.loads(rest) == value, line
    ranks = [value for head, value in expected if head.endswith("divisible_rank: ")]
    assert ranks == [0] * out.count("divisible_rank: 0\n")


@pytest.mark.parametrize("argv, option, text", [
    (["trait", "example_3_4", "--profile", "1,x"], "--profile", "1,x"),
    (["oracle", "example_3_4", "--l", "3", "--profile", "1;1"], "--profile", "1;1"),
    (["psi", "example_3_4", "--kummer", "2,,3"], "--kummer", "2,,3"),
    (["psi", "example_3_4", "--kummer", "2.5"], "--kummer", "2.5"),
    # int() reads these, but an integer is a sign and ASCII digits only
    (["trait", "example_3_4", "--profile", "1_0,1"], "--profile", "1_0,1"),
    (["trait", "example_3_4", "--profile", " 2, 3"], "--profile", " 2, 3"),
    (["oracle", "example_3_4", "--l", "3", "--profile", "\u0661,1"], "--profile", "\u0661,1"),
    (["psi", "example_3_4", "--kummer", "1_0,3"], "--kummer", "1_0,3"),
])
def test_malformed_integer_lists_exit_2(capsys, monkeypatch, argv, option, text):
    # --profile and --kummer share one parser, and a value it refuses prints
    # that option's message and no report
    parsed = []
    original = cli._int_list

    def counting(opt, value):
        parsed.append((opt, value))
        return original(opt, value)

    monkeypatch.setattr(cli, "_int_list", counting)
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, argv + extra)
        assert code == 2 and out == ""
        assert err == f"error: {option}: not a comma-separated integer list: {text!r}\n"
    assert parsed == [(option, text)] * 2


@pytest.mark.parametrize("argv, option, text", [
    (["oracle", "example_3_4", "--l", "0_3"], "--l", "0_3"),
    (["trait", "example_3_4", "--profile", "1,1", "--l", " 2"], "--l", " 2"),
    (["oracle", "example_3_4", "--l", "3", "--r", "\u0664"], "--r", "\u0664"),
    (["generate", "datum", "--seed", "1_0"], "--seed", "1_0"),
])
def test_integer_options_take_a_sign_and_ascii_digits_only(capsys, argv, option, text):
    # int() reads each of these, but an integer is a sign and ASCII digits only
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: invalid decimal_int value: {text!r}\n")


def test_integer_options_take_a_sign_and_leading_zeros(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "example_3_4", "--l", "+03", "--r", "04", "--json"])
    assert code == 0
    assert json.loads(out)["oracle"]["l"] == 3


def test_integer_lists_take_a_sign_and_leading_zeros(capsys):
    code, out, _ = run_cli(capsys, ["psi", "example_3_4", "--kummer", "+2,03", "--json"])
    assert code == 0
    assert json.loads(out)["psi"]["kummer"]["multipliers"] == [2, 3]


@pytest.mark.parametrize("label, message", [
    ({"0": 7, "1": 1}, "edges[0].label[0]: branch 0 is below 1"),
    ({"-3": 2, "1": 2}, "edges[0].label[-3]: branch -3 is below 1"),
    ({"1": 1, "01": 5}, "edges[0].label[01]: branch 1 is named twice"),
    ({"2": 1, "+2": 1}, "edges[0].label[+2]: branch 2 is named twice"),
    ({"2": 1, " 2": 1}, "edges[0].label: not an integer string: ' 2'"),
])
def test_curve_label_keys_outside_the_branches_exit_2(capsys, tmp_path, label, message):
    # a key below 1 names no branch, and two keys must not name the same one:
    # neither is dropped or overwritten in silence
    doc = tmp_path / "labels.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "graph", "name": "labels", "n_branches": 2,
        "vertices": [{"name": "v0", "genus": 0}],
        "edges": [{"ends": ["v0", "v0"], "label": label},
                  {"ends": ["v0", "v0"], "label": {"2": 1}}],
    }))
    code, out, err = run_cli(capsys, ["curve", str(doc), "--json"])
    assert code == 2 and out == ""
    assert err == f"error: {doc}.{message}\n"


@pytest.mark.parametrize("given, echoed, where", [
    ("./{}.json", "./good.json", "bad.json"),
    ("sub//{}.json", "sub//good.json", "sub/bad.json"),
    ("{}", "good", "{tmp}/fixtures/bad.json"),  # found under $DEGENKIT_FIXTURES
])
def test_input_naming(capsys, tmp_path, monkeypatch, given, echoed, where):
    # the report echoes the argument as given; an error names the file it read
    # as pathlib spells it
    raw = cli.resolve_input("example_3_4").read_bytes()
    for home in (tmp_path, tmp_path / "sub", tmp_path / "fixtures"):
        home.mkdir(exist_ok=True)
        (home / "good.json").write_bytes(raw)
        (home / "bad.json").write_text('{"format_version": "2"}')
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DEGENKIT_FIXTURES", str(tmp_path / "fixtures"))
    code, out, _ = run_cli(capsys, ["analyze", given.format("good"), "--json"])
    assert code == 0
    assert json.loads(out)["input"]["path"] == echoed
    code, _, err = run_cli(capsys, ["analyze", given.format("bad")])
    assert code == 2
    assert err == f"error: {where.format(tmp=tmp_path)}.format_version: expected \"1\", got '2'\n"


def test_shipped_fixture_naming(capsys, monkeypatch):
    monkeypatch.delenv("DEGENKIT_FIXTURES", raising=False)
    code, out, _ = run_cli(capsys, ["analyze", "example_3_4", "--json"])
    assert code == 0
    assert json.loads(out)["input"]["path"] == "example_3_4"
    shipped = Path(cli.__file__).parent / "fixtures" / "example_3_4.json"
    code, _, err = run_cli(capsys, ["curve", "example_3_4"])
    assert code == 2
    assert err == f'error: {shipped}: expected a graph input, found kind "degeneration"\n'


@pytest.mark.parametrize("given", ["{tmp}", "lost"])
def test_unreadable_input_exits_2(capsys, tmp_path, monkeypatch, given):
    # a directory where the input should be is bad input, not a falsification
    (tmp_path / "fixtures" / "lost.json").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DEGENKIT_FIXTURES", str(tmp_path / "fixtures"))
    named = tmp_path if given == "{tmp}" else tmp_path / "fixtures" / "lost.json"
    code, out, err = run_cli(capsys, ["analyze", given.format(tmp=tmp_path)])
    assert (code, out) == (2, "")
    assert err == f"error: {named}: cannot read the input (Is a directory)\n"


class TestVerdictPayloads:
    def test_analyze_example(self, capsys):
        _, out, _ = run_cli(capsys, ["analyze", "example_3_4", "--json"])
        verdict = json.loads(out)["verdict"]
        assert verdict == {"toric_additive": False, "weakly_toric_additive": True,
                           "failing_primes": [2]}

    def test_trait_matrix_family(self, capsys):
        for (a, b) in [(1, 1), (2, 3), (5, 1)]:
            _, out, _ = run_cli(capsys, ["trait", "example_3_4",
                                         "--profile", f"{a},{b}", "--json"])
            payload = json.loads(out)["trait"]
            assert payload["phi_f"] == [[4 * a, 2 * a], [2 * a, a + b]]

    def test_trait_zero_profile_warns(self, capsys):
        code, out, _ = run_cli(capsys, ["trait", "example_3_4", "--profile", "0,0", "--json"])
        report = json.loads(out)
        assert code == 0
        assert "trait misses the divisor" in report["warnings"]
        assert report["trait"]["upsilon"]["invariant_factors"] == []

    def test_psi_kummer(self, capsys):
        _, out, _ = run_cli(capsys, ["psi", "example_3_4", "--kummer", "2,3", "--json"])
        kummer = json.loads(out)["psi"]["kummer"]
        assert kummer["rescaled_psi"]["invariant_factors"] == [6]
        assert kummer["fixed_points"]["invariant_factors"] == []
        assert kummer["equals_psi"] is True

    def test_converse_certified_fixture(self, capsys):
        _, out, _ = run_cli(capsys, ["converse", "generated_ta_seed7", "--json"])
        payload = json.loads(out)["converse"]
        assert payload["verdict"] == "TA-certified"
        assert payload["idempotent"] and payload["kernel_decomposition"]

    def test_curve_fixture(self, capsys):
        _, out, _ = run_cli(capsys, ["curve", "genus2_graph", "--json"])
        report = json.loads(out)
        assert report["rank_profile"] == {"mu": 2, "branch_mu": [1, 1], "deficit": 0}
        assert report["verdict"]["toric_additive"] is True
        assert report["curve"]["cokernel_torsion_free"] is True


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "no_such_fixture"])
        assert code == 2
        assert "not found" in err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{this is not json")
        code, _, err = run_cli(capsys, ["analyze", str(bad)])
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("command", ["analyze", "curve"])
    def test_deeply_nested_json(self, capsys, tmp_path, command):
        # the decoder recurses once per level and gives up with a RecursionError
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        code, out, err = run_cli(capsys, [command, str(deep)])
        assert (code, out) == (2, "")
        assert err == f"error: {deep}: not valid JSON (nested too deeply)\n"

    def test_schema_violation(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "format_version": "1", "kind": "degeneration", "name": "x",
            "closed_point": {"rank": 2},
            "branches": [{"name": "D1", "rank": 1, "pairing": [[1]],
                          "specialization": [[1]]}],
        }))
        code, _, err = run_cli(capsys, ["analyze", str(doc)])
        assert code == 2
        assert "specialization" in err

    def test_invalid_datum(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({
            "format_version": "1", "kind": "degeneration", "name": "x",
            "closed_point": {"rank": 2},
            "branches": [{"name": "D1", "rank": 1, "pairing": [[1]],
                          "specialization": [[2, 0]]}],
        }))
        code, _, err = run_cli(capsys, ["analyze", str(doc)])
        assert code == 2
        assert "not surjective" in err

    def test_l_equals_residue_char(self, capsys, tmp_path):
        doc = tmp_path / "p5.json"
        doc.write_text(json.dumps({
            "format_version": "1", "kind": "degeneration", "name": "p5",
            "residue_char": 5,
            "closed_point": {"rank": 1},
            "branches": [{"name": "D1", "rank": 1, "pairing": [[1]],
                          "specialization": [[1]]}],
        }))
        code, _, err = run_cli(capsys, ["oracle", str(doc), "--l", "5"])
        assert code == 2
        assert "residue characteristic" in err

    def test_kind_mismatch(self, capsys):
        code, _, err = run_cli(capsys, ["curve", "example_3_4"])
        assert code == 2
        assert "expected a graph" in err

    def test_wrong_format_version(self, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"format_version": "2", "kind": "graph"}))
        code, _, err = run_cli(capsys, ["curve", str(doc)])
        assert code == 2
        assert "format_version" in err

    def test_falsification_exit_code(self, capsys, monkeypatch):
        # wire-level check: a falsification event must yield exit code 1
        def fake(graph):
            from degenkit.curves import graph_to_datum
            return CurveReport(graph_to_datum(graph), False, False,
                               ("synthetic falsification",))
        monkeypatch.setattr(cli, "curve_equivalences", fake)
        code, out, _ = run_cli(capsys, ["curve", "genus2_graph", "--json"])
        assert code == 1
        assert any("falsification" in w for w in json.loads(out)["warnings"])

    def test_oracle_disagreement_exit_code(self, capsys, monkeypatch):
        # force the Galois side to lie; the report must flag it and exit 1
        monkeypatch.setattr(cli.galois, "star_condition", lambda datum, l: False)
        code, out, _ = run_cli(capsys, ["oracle", "example_3_4", "--l", "3", "--json"])
        assert code == 1
        report = json.loads(out)
        assert report["oracle"]["agree"] is False
        assert any("falsification" in w for w in report["warnings"])


class TestGenerate:
    def test_deterministic_by_seed(self, capsys):
        _, first, _ = run_cli(capsys, ["generate", "datum", "--seed", "5"])
        _, second, _ = run_cli(capsys, ["generate", "datum", "--seed", "5"])
        assert first == second
        _, other, _ = run_cli(capsys, ["generate", "datum", "--seed", "6"])
        assert other != first

    def test_generated_documents_are_consumable(self, capsys, tmp_path):
        for what, command in [("datum", "analyze"), ("ta-datum", "converse"),
                              ("graph", "curve")]:
            out = tmp_path / f"{what}.json"
            code, _, _ = run_cli(capsys, ["generate", what, "--seed", "3",
                                          "--out", str(out)])
            assert code == 0
            code, _, err = run_cli(capsys, [command, str(out), "--json"])
            assert code == 0, err


    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        code, stdout, err = run_cli(capsys, ["generate", "datum", "--seed", "1", "--out", str(out)])
        assert (code, stdout) == (2, "")
        assert err == f"error: {out}: cannot write the output (No such file or directory)\n"
        assert not out.parent.exists()


class TestFixtureResolution:
    def test_env_override(self, capsys, tmp_path, monkeypatch):
        src = cli.resolve_input("example_3_4")
        alt = tmp_path / "renamed.json"
        alt.write_bytes(Path(src).read_bytes())
        monkeypatch.setenv("DEGENKIT_FIXTURES", str(tmp_path))
        code, out, _ = run_cli(capsys, ["analyze", "renamed", "--json"])
        assert code == 0
        assert json.loads(out)["input"]["name"] == "example_3_4"

    def test_big_integer_strings(self, capsys, tmp_path):
        doc = tmp_path / "big.json"
        huge = str(10 ** 30)
        doc.write_text(json.dumps({
            "format_version": "1", "kind": "degeneration", "name": "big",
            "closed_point": {"rank": 1},
            "branches": [{"name": "D1", "rank": 1, "pairing": [[huge]],
                          "specialization": [[1]]}],
        }))
        code, out, _ = run_cli(capsys, ["psi", str(doc), "--json"])
        assert code == 0
        assert json.loads(out)["psi"]["order"] == 10 ** 30

    def test_integer_literal_over_digit_limit(self, capsys, tmp_path):
        # json.loads refuses integer literals above the interpreter's digit limit
        doc = tmp_path / "long.json"
        doc.write_text('{"format_version": "1", "kind": "degeneration", "name": "long", '
                       '"abelian_rank": ' + "1" * 5000 + ', "closed_point": {"rank": 0}, '
                       '"branches": []}')
        code, _, err = run_cli(capsys, ["analyze", str(doc)])
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("as_json", [True, False])
    def test_report_integer_over_digit_limit(self, capsys, tmp_path, as_json):
        # psi.order = 10^6000 has more digits than the interpreter will render
        doc = tmp_path / "huge.json"
        big = str(10 ** 3000)
        doc.write_text(json.dumps({
            "format_version": "1", "kind": "degeneration", "name": "huge",
            "closed_point": {"rank": 2},
            "branches": [{"name": "D1", "rank": 2, "pairing": [[big, "0"], ["0", big]],
                          "specialization": [[1, 0], [0, 1]]}],
        }))
        code, out, err = run_cli(capsys, ["psi", str(doc)] + (["--json"] if as_json else []))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_bad_matrix_entry_exits_2_with_its_location(capsys, tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({
        "format_version": "1", "kind": "degeneration", "name": "bad",
        "closed_point": {"rank": 2},
        "branches": [{"name": "D1", "rank": 2, "pairing": [[2, 1], [True, 2]],
                      "specialization": [[1, 0], [0, 1]]}],
    }))
    code, out, err = run_cli(capsys, ["analyze", str(doc), "--json"])
    assert code == 2
    assert out == ""
    assert err == f"error: {doc}.branches[0].pairing[1][0]: expected an integer, got a boolean\n"


# -- the --json writer --------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII text and lone surrogates
json_chars = (st.sampled_from('"\\/\x00\x08\x0c\n\r\t\x1f\x7f\xe9 €\U0001f600')
              | st.characters(categories=["Cs"])
              | st.characters(exclude_categories=()))
json_strings = st.text(json_chars, max_size=12)
# up to the interpreter's digit limit, so json.dumps renders them too
big_ints = st.builds(lambda head, digits, sign: sign * (head * 10 ** digits + head),
                     st.integers(1, 10 ** 18), st.integers(1000, 4300 - 19),
                     st.sampled_from([1, -1]))
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | big_ints | json_strings,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(report_values)
@example({"": {}, "a": [], "b": [[], {}, ()], "c": {"d": {"e": []}}})
@example([True, False, None, -1, 0, "\ud800", "\udfff x"])
def test_json_writer_matches_json_dumps(value):
    assert cli._render_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"x", {"a": [object()]}, {(1, 2): 3}])
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._render_json(value)
