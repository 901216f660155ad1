"""Command-line interface: file ingestion, dispatch, deterministic reports.

Subcommands: analyze, trait, oracle, converse, psi, curve.  Reports carry no
timestamps and are byte-identical across runs on identical input; ``--json``
emits the machine-readable rendering, whose numeric fields agree with the
human one.  It has one renderer, ``_render_json``: byte for byte
``json.dumps(report, sort_keys=True, indent=2)``, without the stdlib's
per-value cost once an indent is asked for.  A report integer past the
interpreter's digit limit is an input error in both renderings, and a
failed rendering prints nothing.  Exit codes: 0 ok, 1 mathematical
falsification event, 2 input error, so CI can tell "the math broke" from
"the file broke", also when the reader of stderr has gone; and 141 (128 +
SIGPIPE, as a shell reports a process that SIGPIPE ended) with nothing on
stderr when the reader of stdout has gone.

``main`` hands the arguments after a known command straight to that
command's parser in the one cached parser, as argparse would; anything else
(no argument, ``-h``, an unknown command) goes through the whole parser.

Each input is opened once: as given, else under $DEGENKIT_FIXTURES or in the
package's fixtures.  One that exists but cannot be read is exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TextIO

from . import galois, monodromy, neron, schema
from .curves import DualGraph, curve_equivalences
from .degeneration import (
    DegenDatum,
    analyze,
    is_l_toric_additive,
    require_prime_l,
)
from .errors import FalsificationError, InputError
from .lattice import FinAb, l_part

_PLAIN_INT = {int}


def resolve_input(path: str) -> Path:
    """The fixture a name stands for, under $DEGENKIT_FIXTURES or in the package."""
    base = Path(os.environ.get("DEGENKIT_FIXTURES") or Path(__file__).parent / "fixtures")
    for cand in (base / path, base / f"{path}.json"):
        if cand.exists():
            return cand
    raise InputError(f"input file not found: {path}")


def _load(path: str, expect: str) -> tuple[DegenDatum | DualGraph, dict]:
    resolved = Path(path)
    try:
        try:
            with open(resolved, "rb") as file:
                raw = file.read()
        except (FileNotFoundError, NotADirectoryError, ValueError):  # no such file
            resolved = resolve_input(path)
            raw = resolved.read_bytes()
    except OSError as exc:
        raise InputError(f"{resolved}: cannot read the input ({exc.strerror})") from exc
    doc = schema.parse_document(schema.parse_json_bytes(raw, str(resolved)), where=str(resolved))
    kind = "degeneration" if isinstance(doc, DegenDatum) else "graph"
    if kind != expect:
        raise InputError(f"{resolved}: expected a {expect} input, found kind \"{kind}\"")
    echo = {"path": path, "name": doc.name, "sha256": hashlib.sha256(raw).hexdigest()}
    return doc, echo


def _finab_dict(g: FinAb) -> dict:
    # every reported group is finite; format "1" keeps its divisible rank
    return {"invariant_factors": g.invariant_factors, "divisible_rank": 0}


def _datum_common(datum: DegenDatum) -> dict:
    verdict = analyze(datum)
    torsion, free_rank = datum.purity_cokernel
    return {
        "verdict": {
            "toric_additive": verdict.toric_additive,
            "weakly_toric_additive": verdict.weakly_toric_additive,
            "failing_primes": verdict.failing_primes,
        },
        "rank_profile": {"mu": datum.mu, "branch_mu": datum.branch_mus,
                         "deficit": sum(datum.branch_mus) - datum.mu},
        "purity_cokernel": {"invariant_factors": torsion.invariant_factors,
                            "free_rank": free_rank},
    }


def _emit(report: dict, as_json: bool) -> None:
    # both renderings are built whole before printing, so a failure prints nothing
    try:
        text = _render_json(report) if as_json else "\n".join(_render_human(report))
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise InputError(f"report cannot be rendered: {exc}") from exc
    print(text)


def _render_json(value: object, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, for the
    report's own types: dicts with str keys, lists, tuples, str, int, bool and
    None; anything else raises TypeError.  With an indent the stdlib encodes
    in pure Python, one call per value; here a row of plain ints is one join.
    The tests are in json.encoder's order, so subclasses render as there."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)  # ValueError past the interpreter's digit limit
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        if set(map(type, value)) <= _PLAIN_INT:
            items = map(int.__repr__, value)
        else:
            items = [_render_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            item = value[key]
            kind = type(item)  # exact types only: a bool or a subclass recurses
            text = (encode_basestring_ascii(item) if kind is str else int.__repr__(item)
                    if kind is int else _render_json(item, inner))
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_human(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_human(value, prefix + "  "))
        else:
            rendered = json.dumps(value) if not isinstance(value, str) else value
            lines.append(f"{prefix}{key}: {rendered}")
    return lines


def _base_report(command: str, echo: dict) -> dict:
    return {"format_version": schema.FORMAT_VERSION, "command": command,
            "input": echo, "warnings": []}


def _int_list(option: str, text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; "" is the empty list."""
    try:
        return tuple(map(schema.decimal_int, text.split(","))) if text else ()
    except ValueError as exc:
        raise InputError(f"{option}: not a comma-separated integer list: {text!r}") from exc


def _parse_profile(text: str, n: int) -> monodromy.TraitProfile:
    values = _int_list("--profile", text)
    if len(values) != n:
        raise InputError(f"--profile: expected {n} entries, got {len(values)}")
    return monodromy.TraitProfile(values)


def cmd_analyze(args: argparse.Namespace) -> int:
    datum, echo = _load(args.file, "degeneration")
    report = _base_report("analyze", echo)
    report.update(_datum_common(datum))
    _emit(report, args.json)
    return 0


def cmd_trait(args: argparse.Namespace) -> int:
    datum, echo = _load(args.file, "degeneration")
    profile = _parse_profile(args.profile, datum.n)
    composed = monodromy.compose_trait(datum, profile)
    group = monodromy.trait_component_group(datum, composed)
    report = _base_report("trait", echo)
    report.update(_datum_common(datum))
    report["warnings"].extend(composed.warnings)
    payload = {
        "profile": profile.multiplicities,
        "active_branches": [datum.branches[j].name for j in composed.active],
        "phi_f": composed.matrix.entries,
        "upsilon": _finab_dict(group),
    }
    if args.l is not None:
        require_prime_l(datum, args.l)
        payload["l"] = args.l
        payload["upsilon_l_part"] = _finab_dict(l_part(group, args.l))
    report["trait"] = payload
    _emit(report, args.json)
    return 0


def _derived_level(group: FinAb, l: int, r: int) -> int:
    """The level L = max(r, v), where l^v is the exponent of the lattice-side group."""
    if r < 1:
        raise InputError("level r must be >= 1")
    v, exponent = 0, group.exponent    # l^v, as the group is an l-group
    while exponent > 1:
        exponent //= l
        v += 1
    return max(r, v)


def cmd_oracle(args: argparse.Namespace) -> int:
    datum, echo = _load(args.file, "degeneration")
    # the block decomposition into exclusive parts is the star condition, as
    # the parts are independent, and the dual purity cokernel decides it
    # (galois module docstring); the report keeps its key for the format.
    # It refuses first: an l that is no prime other than p, an invalid
    # datum, then an explicit dual side that no polarization ties to P
    star = galois.star_condition(datum, args.l)
    lattice_side = is_l_toric_additive(datum, args.l)
    agree = lattice_side == star
    report = _base_report("oracle", echo)
    report.update(_datum_common(datum))
    payload: dict = {
        "l": args.l,
        "lattice_side": {"l_toric_additive": lattice_side},
        "galois_side": {"star_condition": star, "decomposition": star},
        "agree": agree,
    }
    disagreement = not agree
    if args.profile is not None:
        profile = _parse_profile(args.profile, datum.n)
        composed = monodromy.compose_trait(datum, profile)
        trait_group = monodromy.trait_component_group(datum, composed)
        # on a derived stratum the action sum a_i·psi_i has the torsion of
        # coker phi_f (galois module docstring); only an override can differ
        torsion = galois.action_torsion(datum, profile) \
            if datum.stratum_override(profile.active) is not None else trait_group
        lattice_group = l_part(trait_group, args.l)
        level = _derived_level(lattice_group, args.l, args.r)
        galois_group = galois.torsion_phi_group(torsion, args.l, level)
        stable = galois_group == galois.torsion_phi_group(torsion, args.l, level + 1)
        groups_agree = stable and lattice_group == galois_group
        payload["component_group"] = {
            "profile": profile.multiplicities,
            "r": level,
            "lattice_side": _finab_dict(lattice_group),
            "galois_side": _finab_dict(galois_group),
            "agree": groups_agree,
        }
        report["warnings"].extend(composed.warnings)
        disagreement = disagreement or not groups_agree
    # the bound is the exact torsion from the derived level on (galois.stack_torsion)
    bound = l_part(galois.stack_torsion(datum), args.l)
    payload["closed_point"] = {
        "bound": _finab_dict(bound),
        "exact_torsion": _finab_dict(bound),
        "r_used": _derived_level(bound, args.l, args.r),
        "bound_is_strict": False,
    }
    report["oracle"] = payload
    if disagreement:
        report["warnings"].append("falsification: lattice and Galois sides disagree")
    _emit(report, args.json)
    return 1 if disagreement else 0


def cmd_converse(args: argparse.Namespace) -> int:
    datum, echo = _load(args.file, "degeneration")
    p_map, q_map, psi1, psi2 = neron.converse_inputs_from_datum(datum)
    cert = neron.converse_certificate(p_map, q_map, psi1, psi2)
    report = _base_report("converse", echo)
    report.update(_datum_common(datum))
    payload = {
        "P": p_map.entries,
        "Q": q_map.entries,
        "Psi1": psi1.entries,
        "Psi2": psi2.entries,
        "verdict": "TA-certified" if cert.hypothesis_holds else "hypothesis-failed",
        "hypothesis_holds": cert.hypothesis_holds,
        "coker_at_psi": _finab_dict(cert.coker_at_psi),
        "coker_at_psi_a": _finab_dict(cert.coker_at_psi_a),
    }
    if cert.hypothesis_holds:
        # theta = A^-1, so the chi_i are complementary idempotents that split
        # X = ker P ⊕ ker Q (neron.converse_certificate)
        payload.update(theta=[[str(f) for f in row] for row in cert.theta],
                       chi1=cert.chi1.entries, chi2=cert.chi2.entries,
                       idempotent=True, kernel_decomposition=True, a_is_isomorphism=True)
    report["converse"] = payload
    _emit(report, args.json)
    return 0


def cmd_psi(args: argparse.Namespace) -> int:
    datum, echo = _load(args.file, "degeneration")
    group = neron.psi_group(datum)
    report = _base_report("psi", echo)
    report.update(_datum_common(datum))
    payload: dict = {
        "branch_components": [_finab_dict(g) for g in group.branch_components],
        "psi": _finab_dict(group.group),
        "order": group.group.order,
    }
    if args.kummer is not None:
        multipliers = _int_list("--kummer", args.kummer)
        # the fixed points of the rescaled group are Psi (neron.rescaled_psi)
        payload["kummer"] = {
            "multipliers": multipliers,
            "rescaled_psi": _finab_dict(neron.rescaled_psi(datum, multipliers)),
            "fixed_points": _finab_dict(group.group),
            "equals_psi": True,
        }
    report["psi"] = payload
    _emit(report, args.json)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    graph, echo = _load(args.file, "graph")
    result = curve_equivalences(graph)
    report = _base_report("curve", echo)
    report.update(_datum_common(result.datum))
    report["curve"] = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
        "abelian_rank": result.datum.abelian_rank,
        "cokernel_torsion_free": result.torsion_free,
        "weak_equals_toric": result.equivalence_holds,
    }
    if result.falsifications:
        report["warnings"].extend(f"falsification: {msg}" for msg in result.falsifications)
    _emit(report, args.json)
    return 1 if result.falsifications else 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Emit a schema-valid random document; same seed, same bytes."""
    from random import Random

    from . import generators

    rng = Random(args.seed)
    if args.what == "datum":
        doc = schema.datum_to_dict(generators.random_datum(rng, min_n=1))
    elif args.what == "ta-datum":
        doc = schema.datum_to_dict(generators.random_ta_datum(rng, min_n=1))
    else:
        doc = schema.graph_to_dict(generators.random_graph(rng))
    doc["name"] = f"{doc['name']}-seed{args.seed}"
    text = _render_json(doc)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"{args.out}: cannot write the output ({exc.strerror})") from exc
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenkit",
        description="Toric-additivity verdicts, component groups, and monodromy "
                    "cross-checks for semiabelian degeneration data.")
    sub = parser.add_subparsers(dest="command", required=True)
    integer = schema.decimal_int    # a sign and ASCII digits, as in the input files

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input JSON file (or fixture name)")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    add("analyze", "toric-additivity verdicts and rank profile")

    p_trait = add("trait", "composed pairing and component group of a trait")
    p_trait.add_argument("--profile", required=True,
                         help="comma-separated branch multiplicities a_1,...,a_n")
    p_trait.add_argument("--l", type=integer, default=None, help="also report the l-part")

    p_oracle = add("oracle", "lattice-side vs Galois-side cross-check")
    p_oracle.add_argument("--l", type=integer, required=True, help="prime l != residue char")
    p_oracle.add_argument("--r", type=integer, default=4,
                          help="lowest finite level l^r (default 4)")
    p_oracle.add_argument("--profile", default=None,
                          help="also cross-check the trait component group")

    add("converse", "converse certificate from the branch-1 split")

    p_psi = add("psi", "branchwise component groups and their sum")
    p_psi.add_argument("--kummer", default=None,
                       help="comma-separated tame multipliers m_1,...,m_n")

    add("curve", "dual-graph jacobian datum and curve equivalences")

    p_gen = sub.add_parser("generate", help="emit a random input document")
    p_gen.add_argument("what", choices=["datum", "ta-datum", "graph"])
    p_gen.add_argument("--seed", type=integer, required=True, help="generator seed")
    p_gen.add_argument("--out", default=None, help="write to a file instead of stdout")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    commands = parser._subparsers._group_actions[0].choices  # the parsers by command
    if argv and argv[0] in commands:
        namespace = argparse.Namespace(command=argv[0])
        args, extra = commands[argv[0]].parse_known_args(argv[1:], namespace)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    else:
        args = parser.parse_args(argv)
    # looked up per call, so a replaced module attribute is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        code = command(args)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except InputError as exc:
        return _finish(sys.stderr, f"error: {exc}\n", 2)
    except FalsificationError as exc:
        return _finish(sys.stderr, f"falsification: {exc}\n", 1)
    except BrokenPipeError:
        return _finish(sys.stdout, "", 141)


def _finish(stream: TextIO, message: str, code: int) -> int:
    """Write the message to the stream and return the code.  A stream whose
    reader has gone is pointed at os.devnull, so the interpreter's exit flush
    stays quiet and the code stands; SIGPIPE keeps its disposition, as
    callers may run main in-process."""
    try:
        stream.write(message)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
