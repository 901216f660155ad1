"""Module layout: only ``lattice`` (and the random generators) speak the raw
list-of-rows matrix format of ``intmat``; everything else goes through
``LatticeMap``.  Smith transforms and the general integral solve are gone
from the package, ``intmat`` has one Smith elimination with one path and one
entry point, no routine without a command stays in the package, every
definition there is referenced there and every dataclass field read there,
one function decides how a composed pairing is factored, one builds every
purity stack, a stratum is its basis, reports hold the computed tuples,
``--json`` has one renderer, and a solve is one pass of the one solver."""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import pytest

from degenkit import cli, curves, galois, monodromy, neron, schema
from degenkit.degeneration import Branch, StratumOverride, Verdict
from degenkit.lattice import FinAb, LatticeMap

from conftest import load_fixture
from test_cli import GOLDEN_CASES

SRC = Path(__file__).resolve().parent.parent / "src" / "degenkit"
FORMAT_OWNERS = {"lattice.py", "generators.py"}
# intmat name -> the one function allowed to use it (None: any function)
ALLOWED = {
    "positive_definite": "pairing_violation",
}


def _intmat_uses(tree: ast.AST) -> list[tuple[str | None, str]]:
    """(enclosing function, name) for every ``intmat.<name>`` in a module."""
    uses = []

    def visit(node: ast.AST, func: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name) \
                    and child.value.id == "intmat":
                uses.append((func, child.attr))
            inner = child.name if isinstance(child, ast.FunctionDef) else func
            visit(child, inner)

    visit(tree, None)
    return uses


def _imports_intmat(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "intmat" or any(a.name == "intmat" for a in node.names):
                return True
    return False


MODULES = sorted(p for p in SRC.glob("*.py") if p.name not in FORMAT_OWNERS)


def test_monodromy_does_not_import_intmat():
    assert not _imports_intmat(ast.parse((SRC / "monodromy.py").read_text()))


def test_neron_does_not_import_intmat():
    # the Step-5 projection is B^t between cokernels, with no presentations
    assert not _imports_intmat(ast.parse((SRC / "neron.py").read_text()))


def test_galois_does_not_import_intmat():
    # the Galois side reaches integer matrices only through lattice, and
    # takes no adjugate
    tree = ast.parse((SRC / "galois.py").read_text())
    assert not _imports_intmat(tree)
    assert not _intmat_uses(tree)
    assert "adjugate" not in _identifiers(tree)


def test_star_condition_reads_the_dual_purity_cokernel():
    # one path: the datum's memo, with no determinant, no stack of the f_i,
    # no row basis and no Smith form of its own
    tree = ast.parse((SRC / "galois.py").read_text())
    star = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "star_condition")
    assert "dual_purity_cokernel" in _identifiers(star)
    assert not _identifiers(star) & {"determinant", "stack", "row_basis", "cokernel"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_allowed_intmat_names_outside_lattice(path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module != "intmat", f"{path.name} imports names from intmat"
    bad = [(func, name) for func, name in _intmat_uses(tree)
           if name not in ALLOWED or ALLOWED[name] not in (None, func)]
    assert not bad, f"{path.name} uses intmat directly: {bad}"


# Smith transforms, the general integral solve, the Lattice type, which
# held nothing but a rank that the matrix shapes already carry, and the
# stratum record, which held nothing but its basis and flags
REMOVED = {"smith", "integral_solve", "SNFDecomposition", "smith_normal_form", "Lattice",
           "StratumData"}


def _identifiers(tree: ast.AST) -> set[str]:
    """Every name a module defines, imports or references."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_smith_transforms_or_general_solve(path):
    found = _identifiers(ast.parse(path.read_text())) & REMOVED
    assert not found, f"{path.name} defines or references {sorted(found)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_closed_point_flag(path):
    # the flag that said a stratum basis was restricted purity: a derived
    # basis shares the action's torsion either way, so not even a docstring
    # names it
    assert "closed_point_coordinates" not in path.read_text()


# V of a Smith form, the kernels and presentations read off it, and the flag
# that asked for it: not even a docstring names them
V_NAMES = re.compile(r"\b(?:smith_columns|kernel_basis|with_v|_presentation\w*)")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_smith_transform_v(path):
    found = sorted(set(V_NAMES.findall(path.read_text())))
    assert not found, f"{path.name} names {found}"


# public routines that no command used live on in tests only: the
# leave-one-out kernels and the decomposition check they fed, the exclusive
# index from one adjugate (the star condition needs one determinant), the
# fixed lattice of a set of generators, the closed-point bound and exact
# torsion (read off the stack torsion), the mu × mu products psi_i with the
# Hermite row lattice of their stack (the Galois side keeps the factors of each psi_i),
# four lattice operations no command called: the Q/Z-kernel, the saturated
# kernel, the index of a sum and the column concatenation, the file loader
# of the fixtures, and the recombination check of restricted cycles, which
# their cotree entries fix, the restriction of a datum to a branch subset,
# the star condition's row bases and determinant (the dual purity cokernel
# decides it), the dual datum, and the Step-5 projection, which no report
# carries; the default polarizations, the transversality of a profile, the
# Kummer-rescaled datum, and the component group of a lone pairing (the
# trait group refuses a degenerate phi_f on the cokernel it is given); the
# purity stacks that ``degeneration.restricted_purity`` builds over any subset;
# the converse preconditions on hand-made maps and the fork that sent an
# override's datum to them (``converse_inputs_from_datum`` tests the one
# precondition validation leaves open); the dual-stratum rule that
# validation already enforces; the zero-padded block diagonal, where
# products are formed from their blocks; the rank-profile wrapper and the
# list copy of a matrix, where reports hold the datum's ranks and the entries;
# and the row-basis pre-pass and the adjugates, where one solver pass
# searches every row for its pivots and A^-1 is a solve against the identity
UNUSED = {"exclusive_parts", "_running_row_bases", "decomposition_check", "exclusive_index",
          "fixed_lattice", "closed_point_bound", "closed_point_torsion", "psi_maps",
          "row_lattice", "psi_blocks", "torsion_kernel_qz", "kernel_saturated", "sum_index",
          "beside", "load_document", "_check_cycle_decomposition", "sub_datum",
          "row_basis", "determinant", "dual_datum", "_swapped_strata",
          "trait_surjectivity_check", "TraitSurjectivity", "kummer_rescale",
          "closed_polarization", "branch_polarization", "is_transversal", "component_group",
          "_restricted_purity", "purity_matrix", "dual_purity_matrix",
          "converse_check", "datum_converse", "_dual_is_primal", "block_diagonal",
          "toric_rank_profile", "_matrix_list", "independent_rows", "det_adjugate",
          "adjugate"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_routines_without_a_command(path):
    found = _identifiers(ast.parse(path.read_text())) & UNUSED
    assert not found, f"{path.name} defines or references {sorted(found)}"


def test_cli_has_one_path_to_the_trait_group():
    # monodromy.trait_component_group reads the group off the blocks on
    # unimodular strata and off phi_f elsewhere; cli factors no pairing itself
    tree = ast.parse((SRC / "cli.py").read_text())
    assert "component_group" not in _identifiers(tree)


def test_cli_has_one_path_to_the_converse_certificate():
    # cmd_converse splits the datum and certifies the split, with no other
    # neron function between them
    tree = ast.parse((SRC / "cli.py").read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "cmd_converse")
    called = {node.attr for node in ast.walk(body) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "neron"}
    assert called == {"converse_inputs_from_datum", "converse_certificate"}


# the generator that only tests and the benchmark call, until the benchmark's
# own change moves it
REACHED_FROM_OUTSIDE = {"random_polarized_datum"}


def _references(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is read as a variable or an attribute, or as an
    attribute only."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, kinds))


def _unreached(trees: list[ast.AST]) -> list[str]:
    """The functions, methods and classes that src/ never references outside
    their own definition; a method counts as referenced only when it is
    read as an attribute, so a variable of the same name does not reach it."""
    methods = {id(node) for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    total = sum((_references(tree) for tree in trees), Counter())
    attributes = sum((_references(tree, True) for tree in trees), Counter())
    unreached = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            is_method = id(node) in methods
            count = attributes if is_method else total
            if count[node.name] - _references(node, is_method)[node.name] == 0:
                unreached.append(node.name)
    return sorted(unreached)


def test_every_definition_is_reached():
    # every function, method and class of the package is referenced from
    # src/ outside its own definition; an export in __init__ does not count,
    # and the commands are reached through cli.main's globals() lookup
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    unreached = [name for name in _unreached(trees)
                 if not name.startswith("cmd_")
                 and not (name.startswith("__") and name.endswith("__"))
                 and name not in REACHED_FROM_OUTSIDE]
    assert not unreached, f"defined in src/ but never referenced there: {unreached}"


def test_a_variable_does_not_reach_a_method():
    # FinAb.torsion() once had no caller, and a local variable of that
    # name hid it from a check that counted every name
    tree = ast.parse("class Group:\n"
                     "    def torsion(self):\n"
                     "        return self\n"
                     "    def order(self):\n"
                     "        return 1\n"
                     "def use(group):\n"
                     "    torsion = group.order\n"
                     "    return Group, torsion\n")
    assert _unreached([tree]) == ["torsion", "use"]


def test_integers_and_finite_groups_only():
    # a finite group is its invariant factors; the solver returns integers,
    # so nothing imports fractions; one pass solves, and one function, next
    # to the cokernel, decides whether a map is onto
    assert [f.name for f in fields(FinAb)] == ["invariant_factors"]
    onto = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "fractions" not in imported, path.name
        assert "_gauss_jordan" not in _identifiers(tree), path.name
        onto += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "is_onto"]
    assert onto == ["lattice.is_onto"]
    tree = ast.parse((SRC / "lattice.py").read_text())
    surjective = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef) and node.name == "is_surjective")
    assert {"is_onto", "cokernel"} <= _identifiers(surjective)


def _src_dataclasses() -> list[type]:
    """Every dataclass that a module of src/ defines."""
    modules = [importlib.import_module(f"degenkit.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    return [cls for mod in modules for cls in vars(mod).values()
            if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == mod.__name__]


def _unread_fields(classes: list[type], run) -> list[str]:
    """The fields of ``classes`` that no code in src/ reads, on an instance of
    the field's own class, while ``run()`` runs.  Reads are resolved per class
    at run time, so a read of the same name on another class or on an argparse
    namespace does not count, nor does one by the methods that dataclass
    generates (``__eq__``, ``__hash__``, ``__repr__``), by
    ``dataclasses.replace`` or by a test."""
    src_files = {mod.__file__ for mod in sys.modules.values()
                 if getattr(mod, "__name__", "").startswith("degenkit.")}
    read = set()
    with pytest.MonkeyPatch.context() as mp:
        for cls in classes:
            def getattribute(self, name, cls=cls, names={f.name for f in fields(cls)},
                             base=cls.__getattribute__):
                if name in names and sys._getframe(1).f_code.co_filename in src_files:
                    read.add((cls, name))
                return base(self, name)
            mp.setattr(cls, "__getattribute__", getattribute)
        run()
    return sorted(f"{cls.__name__}.{f.name}" for cls in classes for f in fields(cls)
                  if (cls, f.name) not in read)


def _run_commands(tmp_path: Path) -> None:
    """Every golden argv list through ``cli.main``, then a stratum override
    through ``trait`` and an invalid datum through ``analyze``, which no
    fixture has."""
    example = load_fixture("example_3_4")
    documents = {
        "override": replace(example, strata=(StratumOverride((0,), LatticeMap.identity(1)),)),
        "invalid": replace(example, branches=(replace(
            example.branches[0], pairing=LatticeMap.from_rows([[-1]])), example.branches[1])),
    }
    for name, datum in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(schema.datum_to_dict(datum)))
    argvs = [*GOLDEN_CASES.values(),
             ["trait", str(tmp_path / "override.json"), "--profile", "1,0"],
             ["analyze", str(tmp_path / "invalid.json")]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    assert codes[-2:] == [0, 2]


def test_every_dataclass_field_is_read(tmp_path):
    # a field that no command reads, on its own class, is carried for nothing
    assert not _unread_fields(_src_dataclasses(), lambda: _run_commands(tmp_path))


def test_field_reads_are_resolved_per_class(tmp_path):
    # the check sees a field that only ``args.l`` reads by name, and one whose
    # name src/ code reads on another class only
    @dataclass(frozen=True)
    class Probe:
        l: int
        never_read_anywhere: int

    @dataclass(frozen=True)
    class Other:
        l: int

    # code compiled as a src/ module, which reads l on whatever it is given
    namespace: dict = {}
    exec(compile("def read_l(value):\n    return value.l\n", cli.__file__, "exec"), namespace)
    read_l = namespace["read_l"]

    def run(probe_read: bool) -> None:
        probe = Probe(3, 0)
        assert probe.l == 3 and read_l(Other(2)) == 2     # a test's read does not count
        if probe_read:
            read_l(probe)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["oracle", "example_3_4", "--l", "3"]) == 0   # reads args.l

    probes = [Probe, Other]
    assert _unread_fields(probes, lambda: run(False)) == \
        ["Probe.l", "Probe.never_read_anywhere"]
    assert _unread_fields(probes, lambda: run(True)) == ["Probe.never_read_anywhere"]


def test_a_stratum_is_its_basis():
    # a stratum is the LatticeMap of its basis, and a composed pairing holds
    # the two bases with no flag; stratum_lattice re-decides no override
    # rule (validation refuses a non-principal override without a dual
    # inclusion) and solves nothing
    example = load_fixture("example_3_4")
    override = replace(example, strata=(StratumOverride((0,), LatticeMap.identity(1)),))
    for datum, active in ((example, (0, 1)), (example, ()), (override, (0,))):
        for dual in (False, True):
            assert type(monodromy.stratum_lattice(datum, active, dual)) is LatticeMap
    assert [f.name for f in fields(monodromy.ComposedPairing)] == \
        ["profile", "basis", "dual_basis", "pairings", "warnings"]
    tree = ast.parse((SRC / "monodromy.py").read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "stratum_lattice")
    assert not _identifiers(body) & {"solve", "FalsificationError", "is_principal"}
    assert {"require_valid", "restricted_purity", "image_basis"} <= _identifiers(body)


def test_a_lattice_is_its_rank():
    # a map is its entries and column count, its row count is len(entries),
    # and a branch's ranks are the shape of its pairing
    assert [f.name for f in fields(LatticeMap)] == ["entries", "ncols"]
    assert [f.name for f in fields(Branch)] == ["name", "pairing", "specialization"]
    assert LatticeMap.zero(3, 0).nrows == 3


def test_one_function_stacks_purity_maps():
    # only degeneration.restricted_purity stacks (dual) specializations; no
    # other function both names a specialization and stacks or builds rows,
    # except in the generators, which draw specializations one by one
    stackers = []
    for path in sorted(p for p in SRC.glob("*.py") if p.name != "generators.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                names = _identifiers(node)
                if names & {"specialization", "dual_sp", "dual_specializations"} and \
                        names & {"stack", "from_rows"}:
                    stackers.append(f"{path.stem}.{node.name}")
    assert stackers == ["degeneration.restricted_purity"]


def test_results_carry_only_computed_fields():
    # identities that a proof fixes are rendered by cli, not carried: the
    # certificate's verdict and its three proven flags, the Kummer fixed
    # points and equality, the order of Psi and the verdict of a curve; the
    # verdicts carry no copy of the purity cokernel, which the datum's memo
    # holds; and the Galois side is module functions over the datum, with no
    # class
    assert [f.name for f in fields(Verdict)] == \
        ["toric_additive", "weakly_toric_additive", "failing_primes"]
    assert [f.name for f in fields(neron.ConverseCertificate)] == \
        ["hypothesis_holds", "coker_at_psi", "coker_at_psi_a", "theta", "chi1", "chi2"]
    assert [f.name for f in fields(neron.PsiGroup)] == ["branch_components", "group"]
    assert [f.name for f in fields(curves.CurveReport)] == \
        ["datum", "torsion_free", "equivalence_holds", "falsifications"]
    assert not [obj for obj in vars(galois).values()
                if isinstance(obj, type) and obj.__module__ == galois.__name__]
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        found = _identifiers(ast.parse(text)) & {
            "GaloisRep", "build_rep", "PsiFixedPoints", "psi_fixed_points",
            "share_cokernel", "_action_torsion", "block_torsion"}
        assert not found and not re.search(r"\.(?:factors\b|action\()", text), path.name


def test_untied_dual_refusal_lives_in_star_condition():
    # one function refuses an explicit dual side without both polarizations
    refusing = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef) and any(
                    isinstance(c, ast.Constant) and "explicit dual side needs" in str(c.value)
                    for c in ast.walk(node))]
    assert refusing == ["galois.star_condition"]


def test_one_block_decision_for_composed_pairings():
    # monodromy.composed_cokernel alone chooses between the blocks and phi_f,
    # with no principal-datum or verdict gate; the trait group and the Galois
    # action both go through it, and the oracle factors nothing itself
    trees = {name: ast.parse((SRC / name).read_text())
             for name in ("monodromy.py", "galois.py", "cli.py")}
    funcs = {node.name: node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    decide = _identifiers(funcs["composed_cokernel"])
    assert {"pairing_cokernel", "cokernel", "matrix"} <= decide
    assert not decide & {"is_principal", "verdict"}
    for name in ("trait_component_group", "action_torsion"):
        body = _identifiers(funcs[name])
        assert "composed_cokernel" in body, name
        assert not body & {"pairing_cokernel", "cokernel", "is_principal", "verdict"}, name
    deciders = [name for name, node in funcs.items()
                if {"pairing_cokernel", "matrix"} <= _identifiers(node)]
    assert deciders == ["composed_cokernel"]
    assert not _identifiers(funcs["cmd_oracle"]) & {"cokernel", "pairing_cokernel", "matrix"}


# the Smith entry points and the one elimination they share
SMITH_ROUTINES = {"invariant_factors"}
OLD_SMITH_HELPERS = {"_row_sub", "_col_sub", "_swap_rows", "_swap_cols", "copy_of"}


def test_intmat_has_one_smith_elimination():
    tree = ast.parse((SRC / "intmat.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    eliminations = [name for name in funcs if name not in SMITH_ROUTINES
                    and ("diagonal" in name or "smith" in name)]
    assert eliminations == ["_diagonalize"]
    for name in SMITH_ROUTINES:
        # no loop of its own: each reaches the elimination through one call
        body = list(ast.walk(funcs[name]))
        assert not any(isinstance(node, (ast.For, ast.While)) for node in body), name
        called = {node.func.id for node in body
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert called & {"_diagonalize", "invariant_factors"}, name
    # one path: the elimination takes the matrix and its shape, and no flag
    args = funcs["_diagonalize"].args
    assert [a.arg for a in args.args] == ["m", "nrows", "ncols"]
    assert not (args.defaults or args.kwonlyargs or args.vararg or args.kwarg)


def test_a_solve_is_one_solver_pass(intmat_calls):
    # no Bareiss pre-pass picks independent rows: the solver searches every
    # row for its pivots, here below a zero row and a dependent one
    a = LatticeMap.from_rows([[0, 0], [1, 2], [2, 4], [3, 5]])
    assert a.solve(LatticeMap.from_rows([[0], [3], [6], [8]])) == \
        LatticeMap.from_rows([[1], [1]])
    assert len(intmat_calls["solve_rational"]) == len(intmat_calls["bareiss"]) == 1


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_old_smith_helpers(path):
    found = _identifiers(ast.parse(path.read_text())) & OLD_SMITH_HELPERS
    assert not found, f"{path.name} defines or references {sorted(found)}"


def test_reports_hold_the_computed_values():
    # both renderers print a tuple as they print a list, so no report builder
    # copies a computed tuple into a list
    tree = ast.parse((SRC / "cli.py").read_text())
    builders = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and (node.name.startswith("cmd_") or node.name in {"_datum_common", "_finab_dict"})]
    assert len(builders) == 9
    copies = sorted({f.name for f in builders for node in ast.walk(f)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id == "list"})
    assert not copies, f"cli builds list copies in {copies}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    # --json has one renderer, cli._render_json, which json.dumps(indent=...) would duplicate
    calls = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert not calls, f"{path.name} renders indented JSON at lines {[c.lineno for c in calls]}"
