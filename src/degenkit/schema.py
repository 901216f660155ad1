"""JSON input documents: parsing, validation with locations, serialization.

One format, version "1", two kinds:

* ``degeneration``: closed-point rank, branches with rank/pairing/
  specialization, optional dual side, polarization, and explicit strata.
* ``graph``: vertices with genera, edges with endpoint pair and a label map
  branch-index -> multiplicity (JSON keys are 1-based strings).

Matrices are row-major arrays of arrays of integers; big integers may also
be strings of ASCII digits with an optional sign.  Parse errors carry the
JSON path of the offending field.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .curves import DualGraph, GraphEdge, GraphVertex
from .degeneration import Branch, DegenDatum, StratumOverride
from .errors import InputError
from .lattice import Lattice, LatticeMap

FORMAT_VERSION = "1"
_PLAIN_INT = {int}


def parse_json_bytes(raw: bytes, where: str) -> dict:
    try:
        data = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # also bad UTF-8 and integer literals over the digit limit
        raise InputError(f"{where}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{where}: top level must be a JSON object")
    return data


def parse_document(data: dict, where: str = "input") -> DegenDatum | DualGraph:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"{where}.format_version: expected \"{FORMAT_VERSION}\", got {version!r}")
    kind = data.get("kind")
    if kind == "degeneration":
        return _parse_datum(data, where)
    if kind == "graph":
        return _parse_graph(data, where)
    raise InputError(f"{where}.kind: expected \"degeneration\" or \"graph\", got {kind!r}")


def decimal_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits only; ValueError otherwise."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return decimal_int(value)
        except ValueError as exc:
            raise InputError(f"{where}: not an integer string: {value!r}") from exc
    raise InputError(f"{where}: expected an integer, got {type(value).__name__}")


def _matrix(value: Any, where: str, nrows: int, ncols: int) -> LatticeMap:
    if not isinstance(value, list):
        raise InputError(f"{where}: expected an array of rows")
    if len(value) != nrows:
        raise InputError(f"{where}: has {len(value)} rows, expected {nrows}")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise InputError(f"{where}[{i}]: expected an array")
        if len(row) != ncols:
            raise InputError(f"{where}[{i}]: has {len(row)} entries, expected {ncols}")
        # a row whose entries are all of type int (so no bool) is taken as it
        # is; only another row can fail, so only it is read entry by entry
        # with the location of each
        if set(map(type, row)) <= _PLAIN_INT:
            rows.append(tuple(row))
        else:
            rows.append(tuple(_int(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return LatticeMap(Lattice(ncols), Lattice(nrows), tuple(rows))


def _parse_datum(data: dict, where: str) -> DegenDatum:
    name = data.get("name", "unnamed")
    residue_char = _int(data.get("residue_char", 0), f"{where}.residue_char")
    abelian_rank = _int(data.get("abelian_rank", 0), f"{where}.abelian_rank")
    cp = data.get("closed_point")
    if not isinstance(cp, dict) or "rank" not in cp:
        raise InputError(f"{where}.closed_point: expected an object with a rank")
    mu = _int(cp["rank"], f"{where}.closed_point.rank")
    raw_branches = data.get("branches")
    if not isinstance(raw_branches, list):
        raise InputError(f"{where}.branches: expected an array")

    dual = data.get("dual")
    dual_ranks: list[int] | None = None
    dual_mu = None
    if dual is not None:
        if not isinstance(dual, dict):
            raise InputError(f"{where}.dual: expected an object")
        dcp = dual.get("closed_point")
        if not isinstance(dcp, dict) or "rank" not in dcp:
            raise InputError(f"{where}.dual.closed_point: expected an object with a rank")
        dual_mu = _int(dcp["rank"], f"{where}.dual.closed_point.rank")
        raw_dbranches = dual.get("branches")
        if not isinstance(raw_dbranches, list) or len(raw_dbranches) != len(raw_branches):
            raise InputError(f"{where}.dual.branches: expected one entry per branch")
        dual_ranks = []
        for i, db in enumerate(raw_dbranches):
            if not isinstance(db, dict):
                raise InputError(f"{where}.dual.branches[{i}]: expected an object")
            dual_ranks.append(_int(db.get("rank"), f"{where}.dual.branches[{i}].rank"))

    branches = []
    for i, raw in enumerate(raw_branches):
        bw = f"{where}.branches[{i}]"
        if not isinstance(raw, dict):
            raise InputError(f"{bw}: expected an object")
        bname = raw.get("name", f"D{i + 1}")
        rank = _int(raw.get("rank"), f"{bw}.rank")
        drank = dual_ranks[i] if dual_ranks is not None else rank
        pairing = _matrix(raw.get("pairing"), f"{bw}.pairing", rank, drank)
        sp = _matrix(raw.get("specialization"), f"{bw}.specialization", rank, mu)
        branches.append(Branch(str(bname), Lattice(rank), pairing, sp))

    dual_cp = None
    dual_sps = None
    if dual is not None:
        dual_cp = Lattice(dual_mu)
        dual_sps = tuple(
            _matrix(dual["branches"][i].get("specialization"),
                    f"{where}.dual.branches[{i}].specialization",
                    dual_ranks[i], dual_mu)
            for i in range(len(branches)))

    pol = None
    branch_pols = None
    raw_pol = data.get("polarization")
    if raw_pol is not None:
        if not isinstance(raw_pol, dict):
            raise InputError(f"{where}.polarization: expected an object")
        target_mu = dual_mu if dual_mu is not None else mu
        if "closed_point" in raw_pol:
            pol = _matrix(raw_pol["closed_point"], f"{where}.polarization.closed_point",
                          target_mu, mu)
        if "branches" in raw_pol:
            raw_bp = raw_pol["branches"]
            if not isinstance(raw_bp, list) or len(raw_bp) != len(branches):
                raise InputError(f"{where}.polarization.branches: expected one matrix per branch")
            branch_pols = tuple(
                _matrix(raw_bp[i], f"{where}.polarization.branches[{i}]",
                        branches[i].dual_rank, branches[i].lattice.rank)
                for i in range(len(branches)))

    strata: list[StratumOverride] = []
    raw_strata = data.get("strata", [])
    if not isinstance(raw_strata, list):
        raise InputError(f"{where}.strata: expected an array")
    name_to_index = {b.name: i for i, b in enumerate(branches)}
    for k, raw in enumerate(raw_strata):
        sw = f"{where}.strata[{k}]"
        if not isinstance(raw, dict) or "branches" not in raw or "inclusion" not in raw:
            raise InputError(f"{sw}: expected an object with branches and inclusion")
        idxs = []
        for b in raw["branches"]:
            if isinstance(b, str):
                if b not in name_to_index:
                    raise InputError(f"{sw}.branches: unknown branch name {b!r}")
                idxs.append(name_to_index[b])
            else:
                j = _int(b, f"{sw}.branches") - 1
                if j < 0 or j >= len(branches):
                    raise InputError(f"{sw}.branches: index out of range")
                idxs.append(j)
        idxs = sorted(set(idxs))
        ambient = sum(branches[j].lattice.rank for j in idxs)
        raw_inc = raw["inclusion"]
        if not isinstance(raw_inc, list):
            raise InputError(f"{sw}.inclusion: expected an array of rows")
        cols = len(raw_inc[0]) if raw_inc and isinstance(raw_inc[0], list) else 0
        inclusion = _matrix(raw_inc, f"{sw}.inclusion", ambient, cols)
        dual_inc = None
        if raw.get("dual_inclusion") is not None:
            damb = sum(branches[j].dual_rank for j in idxs)
            raw_dinc = raw["dual_inclusion"]
            dcols = len(raw_dinc[0]) if isinstance(raw_dinc, list) and raw_dinc \
                and isinstance(raw_dinc[0], list) else 0
            dual_inc = _matrix(raw_dinc, f"{sw}.dual_inclusion", damb, dcols)
        strata.append(StratumOverride(tuple(idxs), inclusion, dual_inc))

    try:
        return DegenDatum(
            name=str(name),
            abelian_rank=abelian_rank,
            residue_char=residue_char,
            closed_point=Lattice(mu),
            branches=tuple(branches),
            dual_closed_point=dual_cp,
            dual_specializations=dual_sps,
            polarization=pol,
            branch_polarizations=branch_pols,
            strata=tuple(strata),
        )
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_graph(data: dict, where: str) -> DualGraph:
    name = data.get("name", "unnamed")
    residue_char = _int(data.get("residue_char", 0), f"{where}.residue_char")
    raw_vertices = data.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InputError(f"{where}.vertices: expected a non-empty array")
    vertices = []
    for i, raw in enumerate(raw_vertices):
        vw = f"{where}.vertices[{i}]"
        if not isinstance(raw, dict) or "name" not in raw:
            raise InputError(f"{vw}: expected an object with a name")
        vertices.append(GraphVertex(str(raw["name"]), _int(raw.get("genus", 0), f"{vw}.genus")))
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise InputError(f"{where}.edges: expected an array")
    labels = []
    for i, raw in enumerate(raw_edges):
        ew = f"{where}.edges[{i}]"
        if not isinstance(raw, dict) or "ends" not in raw or "label" not in raw:
            raise InputError(f"{ew}: expected an object with ends and label")
        if not isinstance(raw["label"], dict):
            raise InputError(f"{ew}.label: expected an object branch -> multiplicity")
        label: dict[int, int] = {}
        for k, v in raw["label"].items():
            b = _int(k, f"{ew}.label")
            if b < 1:
                raise InputError(f"{ew}.label[{k}]: branch {b} is below 1")
            if b in label:
                raise InputError(f"{ew}.label[{k}]: branch {b} is named twice")
            label[b] = _int(v, f"{ew}.label[{k}]")
        labels.append(label)
    declared = data.get("n_branches")
    max_used = max((b for lab in labels for b in lab), default=0)
    n_branches = _int(declared, f"{where}.n_branches") if declared is not None else max_used
    if max_used > n_branches:
        raise InputError(f"{where}.n_branches: labels use branch {max_used}, "
                         f"but only {n_branches} declared")
    edges = []
    for i, raw in enumerate(raw_edges):
        ew = f"{where}.edges[{i}]"
        ends = raw["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise InputError(f"{ew}.ends: expected a pair of vertex names")
        label = tuple(labels[i].get(b + 1, 0) for b in range(n_branches))
        try:
            edges.append(GraphEdge((str(ends[0]), str(ends[1])), label))
        except InputError as exc:
            raise InputError(f"{ew}: {exc}") from exc
    try:
        return DualGraph(str(name), residue_char, n_branches, tuple(vertices), tuple(edges))
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


# -- serialization (fixture generation) --------------------------------------

def datum_to_dict(datum: DegenDatum) -> dict:
    out: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "kind": "degeneration",
        "name": datum.name,
        "residue_char": datum.residue_char,
        "abelian_rank": datum.abelian_rank,
        "closed_point": {"rank": datum.mu},
        "branches": [
            {
                "name": b.name,
                "rank": b.lattice.rank,
                "pairing": [list(r) for r in b.pairing.entries],
                "specialization": [list(r) for r in b.specialization.entries],
            }
            for b in datum.branches
        ],
    }
    if datum.dual_closed_point is not None:
        out["dual"] = {
            "closed_point": {"rank": datum.dual_closed_point.rank},
            "branches": [
                {"rank": datum.branches[i].dual_rank,
                 "specialization": [list(r) for r in datum.dual_specializations[i].entries]}
                for i in range(datum.n)
            ],
        }
    if datum.polarization is not None or datum.branch_polarizations is not None:
        pol: dict[str, Any] = {}
        if datum.polarization is not None:
            pol["closed_point"] = [list(r) for r in datum.polarization.entries]
        if datum.branch_polarizations is not None:
            pol["branches"] = [[list(r) for r in lam.entries]
                               for lam in datum.branch_polarizations]
        out["polarization"] = pol
    if datum.strata:
        out["strata"] = [
            {
                "branches": [datum.branches[j].name for j in ov.branches],
                "inclusion": [list(r) for r in ov.inclusion.entries],
                **({"dual_inclusion": [list(r) for r in ov.dual_inclusion.entries]}
                   if ov.dual_inclusion is not None else {}),
            }
            for ov in datum.strata
        ]
    return out


def graph_to_dict(graph: DualGraph) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "graph",
        "name": graph.name,
        "residue_char": graph.residue_char,
        "n_branches": graph.n_branches,
        "vertices": [{"name": v.name, "genus": v.genus} for v in graph.vertices],
        "edges": [
            {"ends": [e.ends[0], e.ends[1]],
             "label": {str(b + 1): m for b, m in enumerate(e.label) if m}}
            for e in graph.edges
        ],
    }
