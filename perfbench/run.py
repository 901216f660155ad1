#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the degenkit CLI.

Run from the repository root:

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 30 --trace 0

Workloads are ``desk-mix``, ``oracle-ladder`` and ``wide-normal-forms`` (see
``perfbench/NOTES.md``).  The inputs are generated from ``--seed`` in a fresh
set-up process; the timed loop then calls ``degenkit.cli.main(argv)``
in-process, one op after another (a closed loop with one client), for
``--seconds`` seconds and at least one round of ops (``workloads.ROUND_OPS``);
the time metrics are taken over whole rounds.  More set-up processes, spread
over the loop, time the set-up.  Every report is checked against references
that the code under test did not produce.

``--trace 0`` reports the end-to-end metrics.  The times are scaled to one
reference speed by a probe kernel timed in a helper process (see
``PROBE_REF_S``); the measured values are printed as well.  ``--trace 1``
runs every op twice, once plain and once with every public function of every
layer wrapped, and reports per-layer metrics from the wrapped runs.  The last
line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, build, golden_cases, references  # noqa: E402

# setup_s is the median of this many fresh set-up processes
SETUP_REPEATS = 9
# The speed of a shared VM drifts by up to 30 % between runs minutes apart,
# and every op slows alike.  A fixed kernel is timed in a helper process between
# ops (perfbench/probe.py), for PROBE_SHARE of the loop's time, so each
# stretch of the run is sampled in proportion to its length.  The op times
# are scaled by PROBE_REF_S / (mean probe time of the run), which puts every
# run at one reference speed; the measured times are printed as well.
PROBE_REF_S = 0.00027
PROBE_SHARE = 0.02
# setup_s is drift-scaled the same way, each set-up by the mean of the probe
# timings taken right before and right after it, this many on each side
SETUP_PROBES = 20
# exit code of a mathematical falsification event (degenkit.cli); the known
# oracle defect exits with it, so it counts as a failed op, not a wrong one
FALSIFICATION_EXIT = 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's src/ first on the path and import the CLI from there."""
    if not (SRC / "degenkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no degenkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import degenkit.cli

    if not Path(degenkit.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: degenkit imported from {degenkit.cli.__file__}, not {SRC}")


def setup_only(workload: str, seed: int, workdir: str) -> None:
    """The timed set-up: import the program, generate the inputs, write them out."""
    import_program()
    files, manifest = build(workload, seed, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    digest = hashlib.sha256()
    for name in sorted(files):
        with open(f"{workdir}/{name}", "w") as fh:
            fh.write(files[name])
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    manifest["inputs_sha256"] = digest.hexdigest()
    with open(f"{workdir}/manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True)


class Probe:
    """The speed probe in its helper process (perfbench/probe.py)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.sample()  # wait until the helper is up

    def sample(self) -> float:
        """Time the kernel once in the helper; its seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


class Setups:
    """Fresh set-up processes, timed from outside.

    The first writes the inputs that the loop reads.  The others write the
    same inputs to a second directory, which is then removed.  They are
    spread over the timed loop, one after each SETUP_REPEATS-th of it, so
    that setup_s meets the host's speed drift, which changes within seconds,
    over the whole run as the ops do.  With a probe, SETUP_PROBES probe
    timings on each side of a set-up scale it to the reference speed.
    """

    def __init__(self, args: argparse.Namespace, probe: Probe | None) -> None:
        self.args = args
        self.probe = probe
        self.workdir = f"perfbench/out/{args.workload}-s{args.seed}"
        self.samples: list[float] = []
        self.speeds: list[float] = []     # mean probe time around each set-up
        self.digests: set[str] = set()

    def run(self, workdir: str) -> dict:
        """Time one set-up process writing to workdir; its manifest."""
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", workdir, "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--seconds", "0"]
        probes = [self.probe.sample() for _ in range(SETUP_PROBES)] if self.probe else []
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        self.samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed ({proc.returncode}):\n{proc.stderr}")
        if self.probe is not None:
            probes += [self.probe.sample() for _ in range(SETUP_PROBES)]
            self.speeds.append(statistics.fmean(probes))
        with open(f"{workdir}/manifest.json") as fh:
            manifest = json.load(fh)
        self.digests.add(manifest["inputs_sha256"])
        return manifest

    def first(self) -> dict:
        """The loop's inputs: the manifest, with references computed from the files."""
        manifest = self.run(self.workdir)
        files = {}
        for name in manifest["inputs"]:
            with open(f"{self.workdir}/{name}") as fh:
                files[name] = fh.read()
        manifest["refs"] = references(files, manifest["inputs"])
        return manifest

    def again(self) -> float:
        """One more set-up; the wall seconds it took, checks included."""
        t0 = time.perf_counter()
        try:
            self.run(self.workdir + "-again")
        finally:
            shutil.rmtree(self.workdir + "-again", ignore_errors=True)
        return time.perf_counter() - t0

    def between_ops(self, loop_s: float, seconds: float) -> float:
        """Run the next spread set-up if it is due after loop_s of ops; seconds spent."""
        if len(self.samples) < SETUP_REPEATS and \
                loop_s >= seconds * len(self.samples) / SETUP_REPEATS:
            return self.again()
        return 0.0

    def finish(self) -> None:
        """Run the set-ups still owed after a loop whose ops outlasted their schedule."""
        while len(self.samples) < SETUP_REPEATS:
            self.again()

    def scaled(self) -> list[float]:
        """Each set-up's time at the reference speed."""
        return [t * PROBE_REF_S / speed for t, speed in zip(self.samples, self.speeds)]


# -- checks against independent references ------------------------------------

def check_report(op: dict, stdout: str, refs: dict, goldens: dict) -> str | None:
    """None when the report agrees with every reference, else what disagreed."""
    check = op["check"]
    if "golden" in check:
        return None if stdout == goldens[check["golden"]] else "differs from its golden"
    report = json.loads(stdout)
    if "graph" in check:
        ref = refs[check["graph"]]
        curve = report["curve"]
        if (curve["vertices"], curve["edges"]) != (ref["vertices"], ref["edges"]):
            return "graph size echo"
        return None
    ref = refs[check["datum"]]
    det = ref["purity_det"]
    ta = det is not None and abs(det) == 1
    if ref["ta_by_construction"] and not ta:
        return "input built toric-additive has a non-unimodular purity matrix"
    if report["verdict"]["toric_additive"] != ta:
        return "toric_additive disagrees with the purity determinant"
    profile = report["rank_profile"]
    if profile["mu"] != ref["mu"] or profile["branch_mu"] != ref["branch_mu"]:
        return "rank profile"
    if report["command"] == "psi" and report["psi"]["order"] != ref["psi_order"]:
        return "psi.order differs from the product of |det pairing_i|"
    if report["command"] == "oracle":
        l = report["oracle"]["l"]
        l_ta = det is not None and det != 0 and det % l != 0
        if report["oracle"]["lattice_side"]["l_toric_additive"] != l_ta:
            return f"l_toric_additive at l={l} disagrees with the purity determinant"
    return None


class Outcomes:
    """Per-op status: each op's first report is checked, repeats must match it.

    ``attempted`` and ``failed`` count distinct ops (indices into the op
    list), not calls: an op's outcome is decided by its first call, and a
    repeat that prints another report is wrong.  So a run of a given seed
    that covers the same ops reports the same counts however many times
    the loop cycled through them.

    An op fails when it exits non-zero or is wrong.  It is wrong when it
    raises, exits with a code other than 0 or a falsification, or its report
    contradicts a reference; any wrong op makes the run incorrect.  A
    falsification exit (the known oracle defect) only fails the op.
    """

    def __init__(self, manifest: dict, goldens: dict) -> None:
        self.ops = manifest["ops"]
        self.refs = manifest["refs"]
        self.goldens = goldens
        self.first: dict[int, str] = {}     # op index -> report sha256
        self.failed_ops: set[int] = set()
        self.wrong_ops: set[int] = set()
        self.calls = 0
        self.wrong: list[str] = []
        self.exit_codes: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _wrong(self, index: int, problem: str) -> None:
        if index not in self.wrong_ops:
            self.wrong.append(f"{' '.join(self.ops[index]['argv'])}: {problem}")
            self.wrong_ops.add(index)

    def record(self, index: int, code, stdout: str, stderr: str, error: str | None) -> None:
        self.calls += 1
        key = str(code) if error is None else "exception"
        self.exit_codes[key] = self.exit_codes.get(key, 0) + 1
        if error is not None:
            self._wrong(index, f"raised {error}")
        elif code == FALSIFICATION_EXIT:
            if "falsification:" not in stdout + stderr:
                self._wrong(index, f"exit {code} without a falsification: {stderr.strip()[:200]}")
        elif code != 0:
            self._wrong(index, f"exit {code}: {stderr.strip()[:200]}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if index not in self.first:
            self.first[index] = digest
            if error is None and stdout.strip():
                problem = check_report(self.ops[index], stdout, self.refs, self.goldens)
                if problem is not None:
                    self._wrong(index, problem)
        elif self.first[index] != digest:
            self._wrong(index, "report differs between runs")
        if error is not None or code != 0 or index in self.wrong_ops:
            self.failed_ops.add(index)


def run_op(main, argv: list[str]) -> tuple[object, str, str, str | None, float]:
    """(exit code, stdout, stderr, exception or None, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code: object = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a wrong op, not a crashed benchmark
        error = repr(exc)
    dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), error, dt


# -- timed loops ---------------------------------------------------------------

def plain_loop(manifest: dict, outcomes: Outcomes, setups: Setups, probe: Probe,
               seconds: float) -> tuple[list[float], list[float]]:
    """(op durations of the whole rounds, probe timings) of the untraced loop."""
    from degenkit import cli

    ops = manifest["ops"]
    min_ops = manifest["round_ops"]
    durations, probes = [], []
    owed = 0.0  # probe time still due
    start = time.perf_counter()
    paused = 0.0  # spent in set-ups, which do not count towards the loop's length
    i = 0
    while i < min_ops or time.perf_counter() - start - paused < seconds:
        index = i % len(ops)
        code, stdout, stderr, error, dt = run_op(cli.main, ops[index]["argv"])
        durations.append(dt)
        owed += PROBE_SHARE * dt
        while owed > 0:
            t0 = time.perf_counter()
            probes.append(probe.sample())
            owed -= time.perf_counter() - t0
        outcomes.record(index, code, stdout, stderr, error)
        i += 1
        paused += setups.between_ops(time.perf_counter() - start - paused, seconds)
    return durations[:len(durations) // min_ops * min_ops], probes


def traced_loop(manifest: dict, outcomes: Outcomes, setups: Setups, seconds: float):
    """Each op runs plain and traced back to back, alternating which goes first."""
    from degenkit import cli
    from tracer import Tracer

    tracer = Tracer()
    ops = manifest["ops"]
    min_ops = manifest["round_ops"]
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while i < min_ops or time.perf_counter() - start - paused < seconds:
        index = i % len(ops)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                hooks_before = tracer.hook_s
                tracer.install()
                tracer.begin_op(i)
            try:
                code, stdout, stderr, error, dt = run_op(cli.main, ops[index]["argv"])
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                tracer.end_op()
                traced_s += dt - (tracer.hook_s - hooks_before)
            else:
                plain_s += dt
            outcomes.record(index, code, stdout, stderr, error)
        i += 1
        paused += setups.between_ops(time.perf_counter() - start - paused, seconds)
    return tracer, plain_s, traced_s


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    os.environ.pop("DEGENKIT_FIXTURES", None)
    if args.setup_only:
        setup_only(args.workload, args.seed, args.setup_only)
        return 0
    import_program()
    goldens = {}
    if args.workload == "desk-mix":
        for name in golden_cases():
            path = GOLDEN / f"{name}.json"
            if not path.is_file():
                raise SystemExit(f"error: missing golden report {path}")
            goldens[name] = path.read_text()

    probe = None if args.trace else Probe()
    setups = Setups(args, probe)
    try:
        manifest = setups.first()
        outcomes = Outcomes(manifest, goldens)
        if args.trace:
            tracer, plain_s, traced_s = traced_loop(manifest, outcomes, setups, args.seconds)
        else:
            durations, probes = plain_loop(manifest, outcomes, setups, probe, args.seconds)
        setups.finish()
    finally:
        if probe is not None:
            probe.close()
        shutil.rmtree(setups.workdir, ignore_errors=True)
    setup_samples = setups.samples
    if len(setups.digests) != 1:
        outcomes.wrong.append("set-ups with the same seed wrote different inputs")

    notes = []
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    else:
        measured = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": len(durations) / sum(durations),
            "op_p50_ms": statistics.median(durations) * 1000,
            "op_tail_ms": percentile(durations, manifest["tail_percentile"]) * 1000,
        }
        scale = PROBE_REF_S / statistics.fmean(probes)
        metrics = {
            "setup_s": statistics.median(setups.scaled()),
            "ops_per_s": measured["ops_per_s"] / scale,
            "op_p50_ms": measured["op_p50_ms"] * scale,
            "op_tail_ms": measured["op_tail_ms"] * scale,
            "ok_frac": 1 - outcomes.failed / outcomes.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes.append(f"op times from {len(durations) // manifest['round_ops']} whole rounds "
                     f"of {manifest['round_ops']} ops; op_tail_ms is "
                     f"p{manifest['tail_percentile']} of {len(durations)} samples")
        notes.append(f"loop speed scale {scale:.4f} from {len(probes)} probe timings; "
                     "measured " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(metrics))} "
                         "do not match BENCHMARK.json")
    # per-op report digests, for comparing runs of the same code
    with open(OUT / f"digests-{args.workload}-s{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"inputs_sha256": manifest["inputs_sha256"],
                   "reports": {str(k): v for k, v in sorted(outcomes.first.items())}},
                  fh, indent=1)

    _print_human(args, manifest, outcomes, metrics, units, setup_samples, notes)
    result = {
        "correct": not outcomes.wrong,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_human(args, manifest, outcomes, metrics, units, setup_samples, notes) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}, {args.seconds:g} s, "
          f"{len(manifest['ops'])} distinct ops, inputs {manifest['inputs_sha256'][:16]}")
    print(f"  {outcomes.calls} calls of {outcomes.attempted} distinct ops, "
          f"{outcomes.failed} ops failed (fail_frac {outcomes.failed / outcomes.attempted:.6f}), "
          f"exit codes of the calls {dict(sorted(outcomes.exit_codes.items()))}")
    if not args.trace:
        print(f"  setup_s is the median of {len(setup_samples)} fresh set-ups ("
              + ", ".join(f"{t:.3f}" for t in setup_samples) + " s)")
    for note in notes:
        print(f"  {note}")
    for problem in outcomes.wrong[:20]:
        print(f"  WRONG: {problem}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
