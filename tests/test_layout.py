"""Module layout: only ``lattice`` (and the random generators) speak the raw
list-of-rows matrix format of ``intmat``; everything else goes through
``LatticeMap``.  Smith transforms and the general integral solve are gone
from the package, ``intmat`` has one Smith elimination with one path and one
entry point, no routine without a command stays in the package, every
definition there is referenced there and every dataclass field read there,
one function decides how a composed pairing is factored, one builds every
purity stack, a stratum is its basis, and ``--json`` has one renderer."""

from __future__ import annotations

import ast
import re
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from degenkit import galois, monodromy

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


REMOVED = {"smith", "integral_solve", "SNFDecomposition", "smith_normal_form"}


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
# torsion (read off the rep's stack), the mu × mu products psi_i with the
# Hermite row lattice of their stack (a rep keeps the factors of each psi_i),
# four lattice operations no command called: the Q/Z-kernel, the saturated
# kernel, the index of a sum and the column concatenation, the file loader
# of the fixtures, and the recombination check of restricted cycles, which
# their cotree entries fix, the restriction of a datum to a branch subset,
# the star condition's row bases and determinant (the dual purity cokernel
# decides it), the dual datum, and the Step-5 projection, which no report
# carries; the default polarizations, the transversality of a profile, the
# Kummer-rescaled datum, and the component group of a lone pairing (the
# trait group refuses a degenerate phi_f on the cokernel it is given); and the
# purity stacks that ``degeneration.restricted_purity`` builds over any subset
UNUSED = {"exclusive_parts", "_running_row_bases", "decomposition_check", "exclusive_index",
          "fixed_lattice", "closed_point_bound", "closed_point_torsion", "psi_maps",
          "row_lattice", "psi_blocks", "torsion_kernel_qz", "kernel_saturated", "sum_index",
          "beside", "load_document", "_check_cycle_decomposition", "sub_datum",
          "row_basis", "determinant", "dual_datum", "_swapped_strata",
          "trait_surjectivity_check", "TraitSurjectivity", "kummer_rescale",
          "closed_polarization", "branch_polarization", "is_transversal", "component_group",
          "_restricted_purity", "purity_matrix", "dual_purity_matrix"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_routines_without_a_command(path):
    found = _identifiers(ast.parse(path.read_text())) & UNUSED
    assert not found, f"{path.name} defines or references {sorted(found)}"


def test_cli_has_one_path_to_the_trait_group():
    # monodromy.trait_component_group reads the group off the blocks on
    # unimodular strata and off phi_f elsewhere; cli factors no pairing itself
    tree = ast.parse((SRC / "cli.py").read_text())
    assert "component_group" not in _identifiers(tree)


# the generators that only tests and the benchmark call, until the benchmark's
# own change moves them
REACHED_FROM_OUTSIDE = {"random_polarized_datum", "random_profile"}


def _references(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_definition_is_reached():
    # every function, method and class of the package is referenced from
    # src/ outside its own definition; an export in __init__ does not count,
    # and the commands are reached through cli.main's globals() lookup
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    total = sum((_references(tree) for tree in trees), Counter())
    unreached = sorted(
        node.name for tree in trees for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("cmd_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in REACHED_FROM_OUTSIDE
        and total[node.name] - _references(node)[node.name] == 0)
    assert not unreached, f"defined in src/ but never referenced there: {unreached}"


def _dataclass_fields(tree: ast.AST) -> list[tuple[str, str]]:
    """(class, field) for every annotated field of a ``@dataclass`` class."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in _identifiers(d) for d in node.decorator_list):
            out += [(node.name, stmt.target.id) for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return out


def _unread_fields(texts: list[str]) -> list[str]:
    trees = [ast.parse(text) for text in texts]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    return sorted(f"{cls}.{name}" for tree in trees for cls, name in _dataclass_fields(tree)
                  if name not in read)


def test_every_dataclass_field_is_read():
    # a field that src/ never reads as an attribute is carried for nothing
    texts = [p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert not _unread_fields(texts)
    # the check sees a field added and never read
    added = texts + ["from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
                     "class Probe:\n    never_read_anywhere: int\n"]
    assert _unread_fields(added) == ["Probe.never_read_anywhere"]


def test_a_stratum_is_its_basis():
    # four fields, no lattice, projection or override flag; stratum_lattice
    # re-decides no override rule and solves nothing
    assert [f.name for f in fields(monodromy.StratumData)] == \
        ["inclusion", "active", "heuristic", "closed_point_coordinates"]
    tree = ast.parse((SRC / "monodromy.py").read_text())
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "stratum_lattice")
    assert not _identifiers(body) & {"solve", "FalsificationError"}
    assert {"require_valid", "restricted_purity", "image_basis"} <= _identifiers(body)


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


def test_galois_rep_is_an_l_datum_value():
    # a frozen (l, datum) pair with no mutable default: every group is read
    # off the datum, and nothing writes into the rep
    rep = galois.GaloisRep
    assert rep.__dataclass_params__.frozen
    assert [f.name for f in fields(rep)] == ["l", "datum"]
    assert all(f.default is MISSING and f.default_factory is MISSING for f in fields(rep))
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        found = _identifiers(ast.parse(text)) & {"share_cokernel", "_action_torsion",
                                                 "block_torsion"}
        assert not found and not re.search(r"\.(?:factors\b|action\()", text), path.name


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_old_smith_helpers(path):
    found = _identifiers(ast.parse(path.read_text())) & OLD_SMITH_HELPERS
    assert not found, f"{path.name} defines or references {sorted(found)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    # --json has one renderer, cli._render_json, which json.dumps(indent=...) would duplicate
    calls = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert not calls, f"{path.name} renders indented JSON at lines {[c.lineno for c in calls]}"
