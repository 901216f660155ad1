"""Seeded inputs and independent references for the three benchmark workloads.

``build(workload, seed, workdir)`` returns the files to write (relative name ->
text) and the op list.  Each op is a CLI argv plus the checks its report must
pass.  ``references(files, inputs)`` computes the reference values from the
generated JSON documents with this module's own exact arithmetic, never by
calling the code under test: the ``degenkit.generators`` functions are used
only to draw inputs.  Building is the timed set-up; the references are
computed afterwards, outside it.

Same workload and seed give byte-identical files and ops.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent

DESK_DATUMS = 384           # generated datums in one desk-mix cycle (6 ops each)
DESK_GRAPHS = 96
LADDER_ROUNDS = 16          # more rounds than a 30 s run completes on this code
WIDE_DATUMS = 480           # about what a 30 s run covers; a faster run cycles again
WIDE_MU = range(12, 16)     # closed-point rank 12..15; from 16 on, HNF blow-ups of 5-15 s

WIDE_RANK_MAX = 8           # branch rank cap (random_spd stalls near 14)
SPEC_ENTRIES = (-2, -1, 0, 1, 2)  # wide specialization entries

# oracle-ladder rungs (branches n, closed-point rank mu, abelian rank alpha,
# prime l): one op per rung and round.  Sizes and l are the same for every
# seed and every round, so every round weighs the same mix of work; only the
# matrices vary.  l = 2 and l = 3 alternate along the mu ladder and along the
# alpha ladder.  The op times cover 0.05-1.5 s and are densest in the middle, so the median and the
# tail percentile fall among several rungs of similar cost, not on the edge
# between two far-apart rungs.  The top rung is mu 17: at mu 19 one datum in
# a few takes 5 s instead of 1.5-2.5 s and adds 5 MB of peak memory, which
# moved a run's op_tail_ms and peak_rss_mb with the seed.
LADDER = (
    (6, 8, 0, 2),
    (11, 17, 0, 3),
    (4, 6, 16, 3),
    (11, 16, 0, 2),
    (4, 6, 8, 2),
    (4, 6, 32, 2),
    (8, 11, 0, 3),
    (11, 15, 0, 3),
    (4, 6, 24, 2),
    (4, 6, 28, 3),
    (10, 14, 0, 2),
)


def golden_cases() -> dict[str, list[str]]:
    """The argv lists that produced tests/golden/<name>.json, from scripts/make_goldens.py."""
    path = ROOT / "scripts" / "make_goldens.py"
    if not path.is_file():
        raise SystemExit(f"error: missing {path}")
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


WORKLOADS = ("desk-mix", "oracle-ladder", "wide-normal-forms")

# op_tail_ms percentile per workload: p90 where a run has >= 100 ops, else the
# highest percentile that keeps at least ten samples above it.
TAIL_PERCENTILE = {"desk-mix": 90, "oracle-ladder": 65, "wide-normal-forms": 90}

# Ops per round: the timed loop always completes at least one round, and the
# time metrics are taken over whole rounds only, so that every run weighs
# the same mix of ops however far the host's speed let it get.  A desk-mix
# round is its whole op list (2,413 ops, about 8 s; 20 s traced), so every
# run attempts every op, and a seed's attempted and failed counts never
# depend on the host's speed; it is the only workload with failing ops (the
# known oracle defect).  An oracle-ladder round is one pass of the ladder,
# a wide-normal-forms round the four ops on one datum.
ROUND_OPS = {"oracle-ladder": len(LADDER), "wide-normal-forms": 4}


# -- exact arithmetic of our own -------------------------------------------

def det(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pivot - aik * ak[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def _surjective(rows: list[list[int]], ncols: int, rng: Random, tries: int = 40) -> bool:
    """Sufficient test for surjectivity onto Z^k: some maximal minors have gcd 1."""
    k = len(rows)
    g = 0
    for _ in range(tries):
        cols = rng.sample(range(ncols), k)
        g = math.gcd(g, det([[r[c] for c in cols] for r in rows]))
        if g == 1:
            return True
    return False


def datum_refs(doc: dict, ta_by_construction: bool) -> dict:
    """Reference values for a degeneration document, from its raw matrices."""
    mu = doc["closed_point"]["rank"]
    purity = [row for b in doc["branches"] for row in b["specialization"]]
    purity_det = det(purity) if len(purity) == mu else None
    return {
        "mu": mu,
        "branch_mu": [b["rank"] for b in doc["branches"]],
        "purity_det": purity_det,
        "ta_by_construction": ta_by_construction,
        "psi_order": math.prod(abs(det(b["pairing"])) for b in doc["branches"]),
    }


# -- workloads --------------------------------------------------------------

class _Builder:
    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.files: dict[str, str] = {}
        self.inputs: dict[str, str] = {}   # file name -> "graph", "datum" or "ta-datum"
        self.ops: list[dict] = []

    def add_file(self, name: str, doc: dict, kind: str) -> str:
        self.files[name] = json.dumps(doc, sort_keys=True) + "\n"
        self.inputs[name] = kind
        return f"{self.workdir}/{name}"

    def op(self, argv: list[str], **check) -> None:
        self.ops.append({"argv": argv + ["--json"], "check": check})


def _profile(rng: Random, n: int) -> str:
    return ",".join(str(rng.randint(1, 3)) for _ in range(n))


def _desk_mix(b: _Builder, rng: Random) -> None:
    from degenkit import generators, schema

    for name, argv in golden_cases().items():
        b.ops.append({"argv": list(argv), "check": {"golden": name}})
    kinds = ("datum", "ta", "polarized", "polarized-ta")
    for i in range(DESK_DATUMS):
        kind = kinds[i % len(kinds)]
        sub = Random(rng.getrandbits(64))
        if kind == "datum":
            datum = generators.random_datum(sub, min_n=1)
        elif kind == "ta":
            datum = generators.random_ta_datum(sub, min_n=1)
        else:
            datum = generators.random_polarized_datum(sub, min_n=1, ta=kind == "polarized-ta")
        doc = schema.datum_to_dict(datum)
        doc["name"] = f"desk-{kind}-{i}"
        key = f"d{i:03d}.json"
        path = b.add_file(key, doc, "ta-datum" if kind.endswith("ta") else "datum")
        prof = _profile(sub, datum.n)
        trait = ["trait", path, "--profile", prof] + (["--l", str(sub.choice((2, 3)))]
                                                    if i % 2 else [])
        kummer = ",".join(str(sub.randint(1, 3)) for _ in range(datum.n))
        b.op(["analyze", path], datum=key)
        b.op(trait, datum=key)
        b.op(["psi", path, "--kummer", kummer], datum=key)
        b.op(["converse", path], datum=key)
        b.op(["oracle", path, "--l", "2", "--profile", prof], datum=key)
        b.op(["oracle", path, "--l", "3"] + (["--profile", prof] if i % 2 == 0 else []),
             datum=key)
        if i % 4 == 3 and i // 4 < DESK_GRAPHS:
            graph = generators.random_graph(Random(rng.getrandbits(64)))
            gdoc = schema.graph_to_dict(graph)
            gdoc["name"] = f"desk-graph-{i // 4}"
            gkey = f"g{i // 4:03d}.json"
            gpath = b.add_file(gkey, gdoc, "graph")
            b.op(["curve", gpath], graph=gkey)


def _oracle_ladder(b: _Builder, rng: Random) -> None:
    from degenkit import generators, schema

    for r in range(LADDER_ROUNDS):
        for k, (n, mu, alpha, l) in enumerate(LADDER):
            sub = Random(rng.getrandbits(64))
            # redraw until the rung's size is met, so every seed runs the same sizes
            datum = generators.random_ta_datum(sub, max_mu=mu, max_n=n, min_n=n)
            while datum.mu != mu:
                datum = generators.random_ta_datum(sub, max_mu=mu, max_n=n, min_n=n)
            doc = schema.datum_to_dict(datum)
            doc["abelian_rank"] = alpha
            doc["name"] = f"ladder-r{r}-{k}"
            key = f"o{r:02d}_{k}.json"
            path = b.add_file(key, doc, "ta-datum")
            b.op(["oracle", path, "--l", str(l), "--profile", _profile(sub, n)], datum=key)


def wide_datum(rng: Random, mu: int) -> dict:
    """Principally polarized, non-toric-additive datum with wide purity matrices.

    3-5 branches of rank <= WIDE_RANK_MAX, specializations with entries in
    [-2, 2].  Every invariant that ``validate`` checks holds by construction
    and is confirmed here with our own determinants: each specialization has
    coprime maximal minors, the purity map has a nonzero mu×mu minor, and the
    purity map is not unimodular.
    """
    from degenkit import generators

    n = rng.randint(3, 5)
    while True:
        ranks = [rng.randint(2, WIDE_RANK_MAX) for _ in range(n)]
        if sum(ranks) >= mu:
            break
    while True:
        sps = []
        for k in ranks:
            while True:
                sp = [rng.choices(SPEC_ENTRIES, k=mu) for _ in range(k)]
                if _surjective(sp, mu, rng):
                    break
            sps.append(sp)
        purity = [row for sp in sps for row in sp]
        if len(purity) == mu:
            d = det(purity)
            ok = abs(d) > 1
        else:
            ok = det([purity[i] for i in rng.sample(range(len(purity)), mu)]) != 0
        if ok:
            break
    branches = [{"name": f"D{i + 1}", "rank": k,
                 "pairing": generators.random_spd(rng, k), "specialization": sp}
                for i, (k, sp) in enumerate(zip(ranks, sps))]
    return {"format_version": "1", "kind": "degeneration", "name": "wide",
            "residue_char": 0, "abelian_rank": rng.randint(0, 2),
            "closed_point": {"rank": mu}, "branches": branches}


def _wide_normal_forms(b: _Builder, rng: Random) -> None:
    for i in range(WIDE_DATUMS):
        sub = Random(rng.getrandbits(64))
        mu = WIDE_MU[i % len(WIDE_MU)]
        doc = wide_datum(sub, mu)
        doc["name"] = f"wide-{i}"
        key = f"w{i:03d}.json"
        path = b.add_file(key, doc, "datum")
        b.op(["analyze", path], datum=key)
        b.op(["trait", path, "--profile", _profile(sub, len(doc["branches"]))], datum=key)
        b.op(["converse", path], datum=key)
        b.op(["psi", path], datum=key)


_BUILDERS = {"desk-mix": _desk_mix, "oracle-ladder": _oracle_ladder,
             "wide-normal-forms": _wide_normal_forms}


def build(workload: str, seed: int, workdir: str) -> tuple[dict[str, str], dict]:
    """(files, manifest) for one workload and seed; files are named relative to workdir."""
    b = _Builder(workdir)
    _BUILDERS[workload](b, Random(seed))
    manifest = {"workload": workload, "seed": seed, "inputs": b.inputs, "ops": b.ops,
                "tail_percentile": TAIL_PERCENTILE[workload],
                "round_ops": ROUND_OPS.get(workload, len(b.ops))}
    return b.files, manifest


def references(files: dict[str, str], inputs: dict[str, str]) -> dict[str, dict]:
    """Reference values for every input file, from its text alone."""
    refs = {}
    for name, kind in inputs.items():
        doc = json.loads(files[name])
        if kind == "graph":
            refs[name] = {"vertices": len(doc["vertices"]), "edges": len(doc["edges"])}
        else:
            refs[name] = datum_refs(doc, kind == "ta-datum")
    return refs
