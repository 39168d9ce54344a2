"""symbb benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload torus-prove --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same figures for people, and the run's provenance.
Inputs are made from ``--seed``; README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One solver thread: workers=1 and BLAS pinned to one thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# Fresh-process set-ups after every untraced pass, so that the set-ups of a
# run are spread over its whole length, not bunched where a burst of load on
# the shared CPU can cover them all.
SETUP_PER_PASS = 10


def declared_units(trace: int) -> dict[str, str]:
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", metavar="WORKDIR", default=None,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_child(workload: str, seed: int, workdir: str) -> int:
    """Timed set-up in a fresh interpreter: import symbb and load the
    workload's instances through ``symbb.instance``; prints the seconds."""
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](Path(workdir), seed)
    wl.load()
    print(time.perf_counter() - t0)
    return 0


def measure_setup(args, workdir: Path, state: "Run", repeats: int) -> list[float]:
    """Set up ``repeats`` times, each in a fresh process; returns the
    timings and counts a set-up that fails in ``state``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-child", str(workdir)]
    times = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        try:
            seconds = float(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            seconds = None
        if seconds is None:
            sys.stderr.write(proc.stderr)
            state.check([f"set-up exited with {proc.returncode} and printed no time"])
        else:
            times.append(seconds)
            state.check([])
    return times


def provenance() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # The ceiling stops git's search at the checkout, so that a repository
    # above it is not taken for this one.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "symbb").glob("*.py")))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {**{k: os.environ.get(k) for k in THREAD_ENV}, "workers": 1},
            "git_commit": commit or "unavailable: not a git checkout", "src_lines": src_lines}


class Run:
    """Operations and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[str, str] = {}

    def record(self, ops) -> None:
        for op in ops:
            first = self.first_output.setdefault(op.key, op.output)
            if op.output != first:
                op.errors.append("output differs from the first pass")
            self.attempted += 1
            if op.errors:
                self.failed += 1
                print(f"check failed: {op.key}: {'; '.join(op.errors)}")

    def check(self, errors: list[str]) -> None:
        """Count one checked operation that failed if ``errors`` is not empty."""
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"check failed: {'; '.join(errors)}")


def median_sum(passes, metric: str) -> float:
    """Sum over a pass's operations of each operation's median time across
    the passes, so that a burst of load on the shared CPU during one
    operation of one pass is left out."""
    by_key = defaultdict(list)
    for ops in passes:
        for op in ops:
            if op.metric == metric:
                by_key[op.key].append(op.seconds)
    return sum(statistics.median(v) for v in by_key.values())


def pass_seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def traced_metrics(names, tracers, traced, untraced, baseline) -> dict[str, float]:
    """Per-layer metrics: counts from the first traced pass (every pass does
    the same work), times as medians over the traced passes.  A name in
    ``names`` that is not computed here, ``<span>.s`` or ``<span>.self_s``,
    is the summed duration or self time of the traced function ``<span>``."""
    from tracing import SPAN_NAMES

    first = tracers[0]
    c = first.counts
    cone_calls = first.calls("dnn.cone_distance")
    nb_calls = first.calls("dnn.nb_bound")
    iso_calls = first.calls("bb.isomorphic")
    m = {
        "dnn.apg_iterations": c["dnn.apg_iterations"],
        "dnn.apg_cap_hits": c["dnn.apg_cap_hits"],
        "dnn.apg_converged_ratio": (cone_calls - c["dnn.apg_cap_hits"]) / cone_calls
        if cone_calls else 0.0,
        "dnn.eigh.calls": first.eigh_calls,
        "dnn.cone_distance.calls": cone_calls,
        "dnn.newton_steps": c["dnn.newton_steps"],
        "dnn.nb_bound.calls": nb_calls,
        "dnn.nb_bound.pruned_ratio": c["dnn.nb_bound.pruned"] / nb_calls if nb_calls else 0.0,
        "symmetry.automorphisms.calls": first.calls("symmetry.automorphisms"),
        "subproblem.leaves_solved": c["subproblem.leaves_solved"],
        "subproblem.subgroup.calls": first.calls("subproblem.subgroup"),
        "bb.isomorphic.calls": iso_calls,
        "bb.iso_merge_ratio": c["bb.iso_merges"] / iso_calls if iso_calls else 0.0,
        "estimator.bound_calls": first.site_calls[("estimator", "dnn.nb_bound")],
    }
    m["dnn.eigh.s"] = statistics.median(t.eigh_ns / 1e9 for t in tracers)
    m["dnn.eigh.us_per_call"] = \
        1e6 * m["dnn.eigh.s"] / first.eigh_calls if first.eigh_calls else 0.0
    m["trace.overhead_s"] = statistics.median(pass_seconds(p) for p in traced) - \
        statistics.median(pass_seconds(p) for p in untraced)
    m["baseline.cone_distance.calls"] = baseline.calls("dnn.cone_distance") if baseline else 0
    m["baseline.eigh.calls"] = baseline.eigh_calls if baseline else 0
    times = [t.layer_times() for t in tracers]  # (total, self) per pass
    for name in names:
        span, _, kind = name.rpartition(".")
        if name not in m and span in SPAN_NAMES and kind in ("s", "self_s"):
            own = kind == "self_s"
            m[name] = statistics.median(t[own].get(span, 0.0) for t in times)
    return m


def consistency_errors(tracer) -> list[str]:
    """Identities that fail when a call site escapes the wrappers: every
    ``cone_distance`` call runs one ``eigh`` per APG iteration plus a final
    one, and every Newton step makes one ``cone_distance`` call."""
    c = tracer.counts
    cone_calls = tracer.calls("dnn.cone_distance")
    errors = []
    if tracer.eigh_calls != c["dnn.apg_iterations"] + cone_calls:
        errors.append(f"eigh calls {tracer.eigh_calls} != APG iterations "
                      f"{c['dnn.apg_iterations']} + cone_distance calls {cone_calls}")
    if c["dnn.newton_steps"] != cone_calls:
        errors.append(f"Newton steps {c['dnn.newton_steps']} != cone_distance calls {cone_calls}")
    return errors


def run(args) -> dict:
    import workloads
    import symbb
    from tracing import Tracer

    if Path(symbb.__file__).resolve().parent != SRC / "symbb":
        raise SystemExit(f"error: imported symbb from {symbb.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
        wl.write_inputs()
        state = Run()
        measure_setup(args, workdir, state, 1)  # warm-up; also compiles the bytecode
        setup_times = []
        loaded = wl.load()
        state.check(wl.load_errors(loaded))

        untraced, traced, tracers = [], [], []
        run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
        t_start = time.perf_counter()
        while True:
            ops = wl.run_pass(loaded, workloads.Timer(None))
            state.record(ops)
            untraced.append(ops)
            if args.trace:
                with Tracer(run_id) as tracer:
                    ops = wl.run_pass(loaded, workloads.Timer(tracer))
                state.record(ops)
                state.check(consistency_errors(tracer))
                traced.append(ops)
                tracers.append(tracer)
            else:
                setup_times += measure_setup(args, workdir, state, SETUP_PER_PASS)
            if time.perf_counter() - t_start >= args.seconds:
                break

        baseline = None
        if args.trace and hasattr(wl, "baseline_pass"):
            with Tracer(run_id) as baseline:
                ops = wl.baseline_pass(workloads.Timer(baseline))
            state.record(ops)
            state.check(consistency_errors(baseline))

        units = declared_units(args.trace)
        commands = sorted({op.metric for ops in untraced for op in ops})
        if args.trace:
            metrics = traced_metrics(units, tracers, traced, untraced, baseline)
            with open(WORK / f"spans-{args.workload}-s{args.seed}.jsonl", "w") as fh:
                for k, t in enumerate(tracers):
                    t.write(fh, f"pass{k}")
                if baseline is not None:
                    baseline.write(fh, "baseline")
            print("calls per binding site:", json.dumps(tracers[0].bindings()))
        else:
            metrics = {name: median_sum(untraced, name) for name in commands}
            metrics["setup_s"] = statistics.median(setup_times) if setup_times else 0.0
            metrics["nodes"] = sum(op.nodes for op in untraced[0])
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if set(metrics) != set(units):
            raise SystemExit(f"error: measured metrics {sorted(metrics)} differ from the "
                             f"declared {sorted(units)}")
        for name in commands:
            per_pass = [sum(op.seconds for op in ops if op.metric == name) for ops in untraced]
            print(f"  {name} per pass: {' '.join(f'{v:.4f}' for v in per_pass)}")
        print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} passes"
              + (f", {len(traced)} traced" if args.trace else ""))
        for name in units:
            print(f"  {name:32s} {metrics[name]:.6g} {units[name]}")
        print(f"  error_rate {state.failed / state.attempted:.6g} "
              f"({state.failed} failed / {state.attempted} attempted)")
        print("provenance:", json.dumps(provenance()))
        return {"correct": state.failed == 0, "attempted": state.attempted,
                "failed": state.failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]}
                            for name in units}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symbb" / "__init__.py").is_file():
        print(f"error: no symbb sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    if args.setup_child is not None:
        return setup_child(args.workload, args.seed, args.setup_child)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
