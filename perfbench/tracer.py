"""Span tracer that wraps degenkit's public functions from outside the package.

Every public function of a layer module (and every public method of the
public classes in ``lattice``) is replaced by a timing wrapper.  The
replacement happens at every ``degenkit.*`` module attribute that holds the
same function object, so names bound with ``from .x import y`` are traced
too.  ``install``/``uninstall`` swap the wrappers in and out, so untraced ops
run the original code.

Spans (id, parent id, name, start, end, op id) are kept in memory up to a cap
and written out at the end.  Self time is a span's duration minus the time
its child spans cover.  Post-call hooks (argument hashing, bit lengths,
certificates) run outside every span: their time is counted as covered by
the caller, so no layer's self time includes it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from workloads import det

LAYERS = ("cli", "schema", "degeneration", "monodromy", "neron", "galois", "curves",
          "lattice", "intmat")
HNF_FUNCS = ("intmat.hnf_columns", "intmat.rank", "intmat.column_lattice_index")
HASHED = ("degeneration.validate", "intmat.smith", "galois.fixed_lattice")
SPAN_CAP = 50_000
# certificates are checked only where U·M·V and the determinants stay cheap
CERT_WORK_CAP = 400_000


def _bits(rows) -> int:
    best = 0
    for row in rows:
        if row:
            m = max(max(row), -min(row))
            if m > best:
                best = m
    return best.bit_length()


def _matmul(a, b, inner: int, ncols: int):
    out = []
    for arow in a:
        orow = [0] * ncols
        for k in range(inner):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(ncols):
                    orow[j] += v * brow[j]
        out.append(orow)
    return out


def smith_certificate(m, nrows: int, ncols: int, u, d, v) -> bool:
    """U·M·V == D, |det U| = |det V| = 1, D diagonal, non-negative, d_i | d_{i+1}."""
    if _matmul(_matmul(u, m, nrows, ncols), v, ncols, ncols) != d:
        return False
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return False
    diag = []
    for i in range(nrows):
        for j in range(ncols):
            if d[i][j] and i != j:
                return False
        if i < ncols:
            diag.append(d[i][i])
    if any(x < 0 for x in diag):
        return False
    nonzero = [x for x in diag if x]
    if diag[:len(nonzero)] != nonzero:
        return False  # zeros must trail
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []       # [span id, child-covered seconds]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.hook_s = 0.0
        self.op_keys: dict[str, set] = {name: set() for name in HASHED}
        self.distinct: dict[str, int] = defaultdict(int)
        self.smith_cells = 0
        self.max_bits: dict[str, int] = defaultdict(int)
        self.cert_checked = 0
        self.cert_fail = 0
        self.new_maps = 0
        self.ops = 0
        self.sites: list[tuple] = []      # (owner, attr, original, wrapper)
        self.hooks = self._hooks()
        self._discover()

    # -- discovery ------------------------------------------------------------

    def _discover(self) -> None:
        originals: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"degenkit.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "degenkit" or n.startswith("degenkit."))]
        for mod in modules:
            for attr, val in vars(mod).items():
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self.sites.append((mod, attr, val, hit[1]))
        lattice = importlib.import_module("degenkit.lattice")
        for cname, cls in vars(lattice).items():
            if cname.startswith("_") or not inspect.isclass(cls) \
                    or cls.__module__ != lattice.__name__:
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                name = f"lattice.{cname}.{attr}"
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(raw.__func__, name))
                elif inspect.isfunction(raw):
                    wrapped = self._wrap(raw, name)
                else:
                    continue  # properties and constants stay as they are
                self.sites.append((cls, attr, raw, wrapped))
        lmap = lattice.LatticeMap
        post_init = vars(lmap)["__post_init__"]

        def counting_post_init(obj):
            self.new_maps += 1
            post_init(obj)

        self.sites.append((lmap, "__post_init__", post_init, counting_post_init))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.sites:
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        stack = self.stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        perf = time.perf_counter
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, t0, t1, self.op_id))
            if hook is not None:
                hook(args, result)
                spent = perf() - t1
                self.hook_s += spent
                if stack:
                    stack[-1][1] += spent
            return result

        return traced

    def _hooks(self) -> dict:
        def validate(args, result):
            self.op_keys["degeneration.validate"].add(hash(args[0]))

        def fixed_lattice(args, result):
            self.op_keys["galois.fixed_lattice"].add(hash((args[0], tuple(args[1]))))

        def smith(args, result):
            m, nrows, ncols = args
            self.op_keys["intmat.smith"].add(hash((nrows, ncols, tuple(map(tuple, m)))))
            self.smith_cells += nrows * ncols
            u, d, v = result
            bits = max(_bits(u), _bits(d), _bits(v))
            if bits > self.max_bits["intmat.smith"]:
                self.max_bits["intmat.smith"] = bits
            work = nrows * ncols * (nrows + ncols) + nrows ** 3 + ncols ** 3
            if work <= CERT_WORK_CAP:
                self.cert_checked += 1
                if not smith_certificate(m, nrows, ncols, u, d, v):
                    self.cert_fail += 1

        def hnf(args, result):
            bits = _bits(result)
            if bits > self.max_bits["intmat.hnf"]:
                self.max_bits["intmat.hnf"] = bits

        return {"degeneration.validate": validate, "galois.fixed_lattice": fixed_lattice,
                "intmat.smith": smith, "intmat.hnf_columns": hnf}

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        for keys in self.op_keys.values():
            keys.clear()

    def end_op(self) -> None:
        self.ops += 1
        for name, keys in self.op_keys.items():
            self.distinct[name] += len(keys)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names) / ops
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names) / ops
        for name in ("cli.build_parser", "schema.parse_document", "curves.graph_to_datum",
                     "monodromy.compose_trait", "neron.converse_check",
                     "intmat.integral_solve", "intmat.kernel_basis",
                     "intmat.solve_rational", "intmat.bareiss_det"):
            out[f"{name}.self_s"] = self.self_s[name] / ops
        for name in HASHED:
            calls = self.calls[name]
            out[f"{name}.calls_per_op"] = calls / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
            out[f"{name}.distinct_ratio"] = self.distinct[name] / calls if calls else 0.0
        out["lattice.LatticeMap.new_per_op"] = self.new_maps / ops
        out["intmat.smith.cells"] = self.smith_cells / ops
        out["intmat.smith.max_bits"] = self.max_bits["intmat.smith"]
        out["intmat.hnf.calls_per_op"] = sum(self.calls[n] for n in HNF_FUNCS) / ops
        out["intmat.hnf.self_s"] = sum(self.self_s[n] for n in HNF_FUNCS) / ops
        out["intmat.hnf.max_bits"] = self.max_bits["intmat.hnf"]
        out["intmat.cert_checked"] = self.cert_checked / ops
        out["intmat.cert_fail"] = self.cert_fail
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, op in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "op": op}) + "\n")
