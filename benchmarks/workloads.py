"""The benchmark's two workloads.

Each workload is a closed loop with one caller in one process: a pass runs a
fixed list of operations through symbb's public entry points, one after the
other, and checks every output against an independent reference
(``reference.py``).  The runner repeats passes for the measured time.  Every
pass does the same work; the checks also require each output to be
identical across passes, apart from its timings.

Every pass runs the four commands a tai256c user runs: ``symmetry``,
``bound-root``, ``estimate`` and ``solve``.  Their times are the end-to-end
metrics ``symmetry_s``, ``root_bound_s``, ``estimate_s`` and ``solve_s``, so
every metric exists on every workload.  What differs between workloads is
the instance shape, and so which layer does the work; README.md says why
each was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symbb import bb, cli, estimator, instance
from symbb.dnn import ApgParams, NbParams

import reference
import torus

# Torus weights are drawn once, from this fixed seed: tree size and APG work
# depend strongly on the weights and even on the cell labelling (a random
# relabelling moved the k = 5 solve's APG iterations by up to 1.9x), so a
# per-run draw would swamp every bound.  ``--seed`` varies only inputs that
# leave the work unchanged: which facilities carry the flow in the .dat files,
# the order of the small-verdicts stream, and the local-search starts.
TORUS_WEIGHT_SEED = 0

# The acceptance gate's soundness-suite settings (audit off, one worker).
SUITE_NB = NbParams(apg=ApgParams(rel_tol=1e-9, max_iter=3000))
SUITE_BB = bb.BbParams(leaf_threshold=8, leaf_band=3, nb=SUITE_NB)
SUITE_EST = estimator.EstParams(leaf_threshold=8, leaf_band=3, nb=SUITE_NB)
# Smaller leaves for the planted instance, so that its tree is deep enough for
# subproblems on one level to repeat an earlier one.
PLANTED_BB = bb.BbParams(leaf_threshold=4, leaf_band=2, nb=SUITE_NB)


def torus_m(k: int) -> int:
    """Cardinality with tai256c's density m / n = 92 / 256."""
    return round(k * k * 92 / 256)


@dataclass
class Op:
    """One timed operation of a pass."""

    key: str             # identity of the operation within a pass
    metric: str          # the end-to-end metric its time counts toward
    seconds: float = 0.0
    nodes: int = 0
    output: str = ""     # canonical output, compared across passes
    errors: list[str] = field(default_factory=list)


class Timer:
    """Times one operation and, when tracing, wraps a CLI call in a span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def call(self, op: Op, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        op.seconds = time.perf_counter() - t0
        return result

    def cli(self, op: Op, args: list[str]) -> str:
        """Run ``symbb <args>`` in process; returns its standard output and
        records a non-zero exit as an error."""
        out = io.StringIO()
        span = self.tracer.span("cli") if self.tracer else contextlib.nullcontext()
        code = 0
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(out):
            try:
                cli.main(args=args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        op.seconds = time.perf_counter() - t0
        if code != 0:
            op.errors.append(f"symbb {args[0]} exited with {code}")
        return out.getvalue()


def _without(obj: dict, *keys) -> dict:
    return {k: v for k, v in obj.items() if k not in keys}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_json(path: Path, op: Op) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        op.errors.append(f"unreadable output {path.name}: {exc}")
        return {}


def check_certificate(op: Op, cert: dict, B: np.ndarray, m: int, target: int,
                      expected: str, upper: int | None = None, optimum: int | None = None):
    """Verdict, witness and node-count checks of a solve certificate."""
    op.nodes = int(cert.get("node_count", 0))
    op.output = _canonical(_without(cert, "timing"))
    outcome = cert.get("outcome")
    if outcome != expected:
        op.errors.append(f"target {target}: {outcome}, expected {expected}")
    if outcome == "Proved" and upper is not None and target > upper:
        op.errors.append(f"proved target {target} above the upper bound {upper}")
    if outcome == "Refuted":
        x = [int(c) for c in cert.get("witness", "")]
        value = cert.get("witness_value")
        op.errors += reference.witness_errors(B, m, x, value)
        if value is None or value >= target:
            op.errors.append(f"witness value {value} does not refute {target}")
        elif optimum is not None and value != optimum:
            op.errors.append(f"witness value {value} below the optimum {optimum}")


def symmetry_op(timer: Timer, key: str, path: Path, B: np.ndarray, workdir: Path,
                required=(), order: int | None = None, orbit_count: int | None = None) -> Op:
    """``symbb symmetry --fix 1`` with the group and orbit table written out
    and checked."""
    op = Op(key, "symmetry_s")
    group_json, orbit_csv = workdir / f"{key}.group.json", workdir / f"{key}.orbits.csv"
    out = timer.cli(op, ["symmetry", "--instance", str(path), "--fix", "1",
                         "--group-json", str(group_json), "--orbit-csv", str(orbit_csv)])
    group = _read_json(group_json, op)
    elements = np.asarray(group.get("elements", []), dtype=np.int64) - 1
    op.errors += reference.group_errors(B, elements, int(group.get("order", -1)), required)
    if order is not None and group.get("order") != order:
        op.errors.append(f"group order {group.get('order')}, expected {order}")
    rows = []
    if orbit_csv.is_file():
        with open(orbit_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
    if sum(int(r["size"]) for r in rows) != B.shape[0] - 1:
        op.errors.append("orbits after fixing variable 1 do not cover the other variables")
    if orbit_count is not None and len(rows) != orbit_count:
        op.errors.append(f"{len(rows)} orbits after fixing variable 1, expected {orbit_count}")
    op.output = out + _canonical(rows)
    return op


def bound_root_op(timer: Timer, key: str, path: Path, workdir: Path, upper: int,
                  extra=()) -> Op:
    """``symbb bound-root`` without a target; the validated bound may not
    exceed a known upper bound on the optimum with variable 1 set to one
    (on a torus every cell is alike, so any upper bound will do)."""
    op = Op(key, "root_bound_s")
    out_json = workdir / f"{key}.json"
    timer.cli(op, ["bound-root", "--instance", str(path), "--json", str(out_json), *extra])
    payload = _read_json(out_json, op)
    lb = payload.get("lower_bound", float("inf"))
    if not lb <= upper:
        op.errors.append(f"root bound {lb} above the upper bound {upper}")
    op.output = _canonical(payload)
    return op


class Workload:
    """Inputs, set-up and passes of one workload.  ``write_inputs`` makes the
    inputs from the seed and the references, untimed; ``load`` is the timed
    set-up; ``run_pass`` runs and checks one pass."""

    name = ""

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed

    def write_inputs(self) -> None:
        raise NotImplementedError

    def load(self) -> dict:
        raise NotImplementedError

    def load_errors(self, loaded: dict) -> list[str]:
        raise NotImplementedError

    def run_pass(self, loaded: dict, timer: Timer) -> list[Op]:
        raise NotImplementedError


class TorusProve(Workload):
    """Tori written as QAPLIB files: plan, estimate, then prove.

    The two planning commands run through the ``symbb`` CLI on the larger
    tori: ``symmetry --fix 1`` on k = 10 (n = 100, |G| = 800) and an
    untargeted ``bound-root`` on k = 6 (lifted order 71, bound 5382.62).
    ``estimate`` and ``solve`` then run through the library on k = 5
    (n = 25, m = 9, |G| = 200) at a target between the root DNN bound
    (3077.85) and the local-search upper bound (3118); the solve proves it
    in 9 nodes.  The estimate samples one node of every two-node level; its
    two fixed seeds both follow the branch that stays open, so each bounds a
    node on every level.  Two seeds rather than one make the command long
    enough (about 3 s) that a short burst of load on the shared CPU moves it
    little, and ``estimate_multi`` recomputes the root group for each seed.

    The k = 6 torus has m = 11, not the 13 of tai256c's density: at m = 13
    the untargeted bound takes 25k APG iterations (13 s on a 2-core x86
    machine) and the pass grows past a third of the run; at m = 11 it takes
    7.8k.
    """

    name = "torus-prove"
    K_SYMMETRY, K_BOUND, K = 10, 6, 5
    sizes = {K_SYMMETRY: torus_m(K_SYMMETRY), K_BOUND: 11, K: torus_m(K)}
    TARGET = 3082
    EST_SEEDS = (3, 4)
    EST_PARAMS = estimator.EstParams(width_threshold=2, sample_cutoff=2, sample_size=1)

    def write_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.B, self.upper = {}, {}
        for k, m in self.sizes.items():
            B = torus.torus_matrix(k, TORUS_WEIGHT_SEED)
            support = np.sort(rng.choice(k * k, m, replace=False))
            self.path(k).write_text(torus.format_qaplib(B, support))
            self.B[k] = B
            self.upper[k] = reference.local_search_upper(B, m, self.seed)

    def path(self, k: int) -> Path:
        return self.workdir / f"torus{k}.dat"

    def load(self) -> dict:
        return {k: instance.qap_to_bqop(instance.parse_qaplib(self.path(k).read_text()))
                for k in self.sizes}

    def load_errors(self, loaded: dict) -> list[str]:
        return [f"torus k={k} loaded wrongly" for k, inst in loaded.items()
                if inst.m != self.sizes[k] or not np.array_equal(inst.B, self.B[k])]

    def run_pass(self, loaded: dict, timer: Timer) -> list[Op]:
        k, inst, ks = self.K, loaded[self.K], self.K_SYMMETRY
        classes = {torus.offset_class(dr, dc, ks) for dr in range(ks) for dc in range(ks)}
        ops = [symmetry_op(timer, f"symmetry-k{ks}", self.path(ks), self.B[ks], self.workdir,
                           required=torus.torus_symmetries(ks), order=8 * ks * ks,
                           orbit_count=len(classes) - 1),
               bound_root_op(timer, f"bound-root-k{self.K_BOUND}", self.path(self.K_BOUND),
                             self.workdir, self.upper[self.K_BOUND])]

        op = Op("estimate", "estimate_s")
        summary = timer.call(op, estimator.estimate_multi, inst, self.TARGET, self.EST_SEEDS,
                             self.EST_PARAMS)
        reports = [_without(r, "mean_node_seconds", "estimated_time_seconds")
                   for r in summary["reports"]]
        op.output = _canonical({"nodes": summary["nodes"], "reports": reports})
        if not all(r["sampled"] and r["complete"] and not r["target_refuted"] for r in reports):
            op.errors.append("an estimate did not sample a complete tree")
        ops.append(op)

        op = Op("solve", "solve_s")
        cert = timer.call(op, bb.solve_target, inst, self.TARGET, bb.BbParams())
        check_certificate(op, cert.to_json_obj(), self.B[k], inst.m, self.TARGET,
                          "Proved", upper=self.upper[k])
        ops.append(op)
        return ops


class SmallVerdicts(Workload):
    """The soundness suite's instance stream, first nine instances (n =
    6..14, instances 3 and 7 planted): each is solved at its brute-force
    optimum (Proved) and one above (Refuted), with the suite's settings.  Before the
    solves, ``symmetry`` and ``bound-root`` run on the instance file and
    ``estimate`` runs at the optimum with the default width threshold, so it
    expands the whole tree.  ``--seed`` shuffles the order of the instances.

    A planted instance with two blocks of eight (n = 16, m = 7) closes each
    pass: solved at its optimum with leaves of at most 4 free variables, its
    proof checks isomorphism 4 times in 37 nodes and merges each time.  No
    instance of the stream checks any: their fingerprints never collide.

    The traced run also solves the first 40 instances once, the ROADMAP
    baseline slice, to cross-check its counts.
    """

    name = "small-verdicts"
    SLICE = range(9)
    KEYS = (*SLICE, "planted")
    BASELINE = range(40)
    BOUND_FLAGS = ("--apg-tol", "1e-9", "--apg-max-iter", "3000")
    PLANTED_SEED, PLANTED_BLOCKS, PLANTED_R, PLANTED_M = 7, 2, 8, 7

    def write_inputs(self) -> None:
        self.ref = {}
        for i in self.SLICE:
            B, m, rotation = reference.soundness_instance(i)
            self.ref[i] = (B, m, rotation)
        B, rotation = reference.planted_matrix(np.random.default_rng(self.PLANTED_SEED),
                                               self.PLANTED_BLOCKS, self.PLANTED_R)
        self.ref["planted"] = (B, self.PLANTED_M, rotation)
        self.optimum = {}
        for key, (B, m, _) in self.ref.items():
            n = B.shape[0]
            tri = [int(B[r, c]) for r in range(n) for c in range(r + 1)]
            self.path(key).write_text(json.dumps({"n": n, "m": m, "B_lower": tri}))
            self.optimum[key] = reference.brute_force_optimum(B, m)
        self.root_optimum = {i: reference.brute_force_optimum(*self.ref[i][:2], first_fixed=True)
                             for i in self.SLICE}
        self.order = [int(i) for i in np.random.default_rng(self.seed).permutation(self.SLICE)]

    def path(self, key) -> Path:
        return self.workdir / f"soundness-{key}.json"

    def load(self) -> dict:
        return {key: instance.bqop_from_json(self.path(key).read_text()) for key in self.KEYS}

    def load_errors(self, loaded: dict) -> list[str]:
        return [f"instance {key} loaded wrongly" for key, inst in loaded.items()
                if inst.m != self.ref[key][1] or not np.array_equal(inst.B, self.ref[key][0])]

    def run_pass(self, loaded: dict, timer: Timer) -> list[Op]:
        ops = []
        for i in self.order:
            B, _, rotation = self.ref[i]
            opt, inst = self.optimum[i], loaded[i]
            required = [] if rotation is None else [rotation]
            ops.append(symmetry_op(timer, f"symmetry-{i}", self.path(i), B, self.workdir,
                                   required=required))
            ops.append(bound_root_op(timer, f"bound-root-{i}", self.path(i), self.workdir,
                                     self.root_optimum[i], self.BOUND_FLAGS))

            est = Op(f"estimate-{i}", "estimate_s")
            report = timer.call(est, estimator.estimate, inst, opt, SUITE_EST)
            est.output = _canonical(_without(report.to_json_obj(), "mean_node_seconds",
                                             "estimated_time_seconds"))
            ops.append(est)

            proved, refuted = solve_pair(timer, str(i), inst, B, opt, SUITE_BB)
            ops += [proved, refuted]
            # Without isomorphism merges, the full-tree estimate is exact.
            cert = json.loads(proved.output)
            if all(d["pruned_iso"] == 0 for d in cert["per_depth"]) and \
                    report.estimated_total_nodes != proved.nodes:
                est.errors.append(f"estimate {report.estimated_total_nodes} differs from "
                                  f"the exact {proved.nodes} nodes")
        ops.append(solve_op(timer, "planted", loaded["planted"], self.ref["planted"][0],
                            self.optimum["planted"], PLANTED_BB, "Proved"))
        return ops

    def baseline_pass(self, timer: Timer) -> list[Op]:
        """Solve-only pass over the ROADMAP baseline slice."""
        ops = []
        for i in self.BASELINE:
            B, m, _ = reference.soundness_instance(i)
            inst = instance.BqopInstance(n=B.shape[0], B=B, m=m)
            ops += solve_pair(timer, f"baseline-{i}", inst, B,
                              reference.brute_force_optimum(B, m), SUITE_BB)
        return ops


def solve_op(timer: Timer, label: str, inst, B: np.ndarray, opt: int, params: bb.BbParams,
             expected: str) -> Op:
    """Solve at the optimum, which must be Proved, or one above it, which
    must be Refuted by a witness at the optimum."""
    target = opt if expected == "Proved" else opt + 1
    op = Op(f"solve-{label}-{expected}", "solve_s")
    cert = timer.call(op, bb.solve_target, inst, target, params)
    check_certificate(op, cert.to_json_obj(), B, inst.m, target, expected, optimum=opt)
    return op


def solve_pair(timer: Timer, label: str, inst, B: np.ndarray, opt: int,
               params: bb.BbParams) -> list[Op]:
    return [solve_op(timer, label, inst, B, opt, params, expected)
            for expected in ("Proved", "Refuted")]


WORKLOADS = {w.name: w for w in (TorusProve, SmallVerdicts)}
