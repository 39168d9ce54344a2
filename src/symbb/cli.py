"""Command line interface.

Every machine-readable output embeds the resolved run configuration and a
content hash of the instance so a run can be reproduced exactly from its own
output.  Timings live in a separate field so the remaining payload is
byte-stable across reruns.

Exit codes: 0 completed, 1 error, 2 target refuted, 3 inconclusive (budget).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import click

from . import bb, dnn, estimator, instance, subproblem, symmetry

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3


def _load_bqop(path: str) -> tuple[instance.BqopInstance, str]:
    """Load a BQOP from QAPLIB .dat (converted) or BQOP .json; returns the
    instance and a sha256 of the raw file."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise instance.InstanceError(f"{path} is not UTF-8 text: {exc}") from None
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return instance.bqop_from_json(text), digest
    return instance.qap_to_bqop(instance.parse_qaplib(text)), digest


def _params(cls, flags: dict, config_path: str | None = None):
    """The run parameters: the defaults of the params dataclass ``cls``, then
    the flags that were given (``None`` is not given; a flag's name is the
    path of the field it sets, ``nb__apg__rel_tol`` for ``nb.apg.rel_tol``),
    then the ``--config`` file.  Each step is checked as it is applied, by
    the params dataclasses themselves."""
    given: dict = {}
    for name, value in flags.items():
        if value is not None:
            *path, key = name.split("__")
            nested = given
            for part in path:
                nested = nested.setdefault(part, {})
            nested[key] = value
    params = _apply_overrides(cls(), given)
    if config_path is not None:
        try:
            data = json.loads(Path(config_path).read_bytes())
        except ValueError as exc:
            raise click.ClickException(f"--config is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise click.ClickException("--config must contain a JSON object")
        params = _apply_overrides(params, data)
    return params


def _apply_overrides(params, overrides: dict, prefix: str = ""):
    """A copy of a params dataclass with overrides applied.  A nested JSON
    object overrides the nested dataclass of the same name (``nb``, then
    ``apg``); unknown keys, and any other value where an object goes, are
    errors, and so are the values the dataclass refuses, all named by their
    dotted path."""
    names = {f.name for f in dataclasses.fields(params)}
    changes = {}
    for key, value in overrides.items():
        name = prefix + key
        if key not in names:
            raise click.ClickException(f"--config: unknown key {name!r}")
        current = getattr(params, key)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise click.ClickException(f"--config: {name!r} must be a JSON object")
            value = _apply_overrides(current, value, name + ".")
        changes[key] = value
    try:
        return dataclasses.replace(params, **changes)
    except ValueError as exc:
        raise click.ClickException(f"{prefix}{exc}") from None


def _write(path: str, text: str):
    """Write ``text`` to the file ``path`` names, following symlinks, so a
    link stays a link.  A new path or a regular file is written to
    ``<path>.tmp`` beside it and then moved into place, so an interrupted
    write never leaves a truncated file; anything else that exists, such as
    a device or a FIFO, is written in place."""
    path = os.path.realpath(path)
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    if not in_place:
        os.replace(tmp, path)


def _emit(path: str | None, payload: dict, digest: str, subcommand: str, **config):
    """Write ``payload`` as strict JSON, with the run configuration (the
    ``subcommand`` and the ``config`` values that are not None) and the
    instance hash, to ``path`` or, with no path, to stdout.  A value with no
    JSON form (NaN, infinity) is an error."""
    payload["config"] = {"subcommand": subcommand,
                         **{k: v for k, v in config.items() if v is not None}}
    payload["instance_sha256"] = digest
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    if path is None:
        click.echo(text)
    else:
        _write(path, text + "\n")


def _write_csv(path: str, rows: list[dict], header: list[str] | None = None):
    """Rows under ``header`` if given, or else under every key of the rows,
    in the order met; a row without a key leaves its cell empty."""
    out = io.StringIO()
    fields = header or list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.DictWriter(out, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    _write(path, out.getvalue())


def _error_exit(call, *args, **kwargs):
    """``call(*args, **kwargs)``; a usage error, a malformed instance, a
    group too large to list or an output that cannot be written instead
    prints one ``error: <message>`` line on stderr and exits 1."""
    try:
        return call(*args, **kwargs)
    except click.ClickException as exc:
        message = exc.format_message()
    except (instance.InstanceError, symmetry.GroupTooLargeError, OSError) as exc:
        message = str(exc)
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_ERROR)


class _Symbb(click.Group):
    """The ``symbb`` group: its own options and every command share
    ``_error_exit``.  A bare ``symbb`` is a usage error ("Missing command.")."""

    def make_context(self, *args, **kwargs):
        return _error_exit(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _error_exit(super().invoke, ctx)


@click.group(cls=_Symbb, no_args_is_help=False)
def main():
    """Target-lower-bound solver toolkit for cardinality-constrained binary
    quadratic optimization with symmetry exploitation."""


_instance_option = click.option("--instance", "instance_path", required=True,
                                type=click.Path(exists=True, dir_okay=False))


class _OutputPath(click.Path):
    """A file a command writes: not a directory, and in a directory that
    exists, checked when the command line is parsed, before any work.  The
    directory is the one ``_write`` writes in, where symlinks lead."""

    def __init__(self):
        super().__init__(dir_okay=False)

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not value or value.endswith(("/", os.sep)):
            self.fail(f"{value!r} names a directory.", param, ctx)
        parent = Path(os.path.realpath(value)).parent
        if not parent.is_dir():
            self.fail(f"directory {str(parent)!r} does not exist.", param, ctx)
        return value


_output_path = _OutputPath()


@main.command()
@_instance_option
@click.option("--output", "output_path", default=None, type=_output_path)
def convert(instance_path, output_path):
    """Convert a QAPLIB rank-one-flow instance (or a BQOP JSON) to BQOP JSON."""
    bqop, digest = _load_bqop(instance_path)
    _emit(output_path, json.loads(instance.bqop_to_json(bqop)), digest, "convert",
          instance=instance_path)
    sys.exit(EXIT_OK)


@main.command(name="symmetry")
@_instance_option
@click.option("--fix", "fix_index", default=None, type=int,
              help="Report orbits after fixing this 1-based variable to 1.")
@click.option("--orbit-csv", default=None, type=_output_path)
@click.option("--group-json", default=None, type=_output_path)
@click.option("--group-cap", default=1_000_000, type=int,
              help="Largest group whose elements --group-json may list.")
def symmetry_cmd(instance_path, fix_index, orbit_csv, group_json, group_cap):
    """Compute the automorphism group of the cost matrix and its orbits."""
    bqop, digest = _load_bqop(instance_path)
    if fix_index is not None and not 1 <= fix_index <= bqop.n:
        raise click.BadParameter(f"{fix_index} is not in 1..{bqop.n}",
                                 param_hint="'--fix'")
    group = symmetry.automorphisms(bqop.B)
    payload = symmetry.group_to_json_obj(group, group_cap) if group_json else None
    click.echo(f"group order: {group.order}")

    if fix_index is not None:
        sub = subproblem.reduce(bqop, subproblem.FixSets(i0=(), i1=(fix_index - 1,)))
        ranked = bb.orbit_scores(sub)
        rows = symmetry.orbit_report_rows([orb for orb, _ in ranked],
                                          [f"{score:.1f}" for _, score in ranked])
        click.echo(f"orbits after fixing variable {fix_index}: {len(ranked)}")
    else:
        orbs = symmetry.orbits(group)
        rows = symmetry.orbit_report_rows(orbs)
        click.echo(f"orbits: {len(orbs)}")
    if orbit_csv:
        header = ["orbit", "members", "size"]
        if fix_index is not None:
            header.append("score")
        _write_csv(orbit_csv, rows, header)
    if group_json:
        _emit(group_json, payload, digest, "symmetry", instance=instance_path, fix=fix_index)
    sys.exit(EXIT_OK)


@main.command(name="bound-root")
@_instance_option
@click.option("--target", default=None, type=int)
@click.option("--lambda-scale", "lambda_scale", default=None, type=float)
@click.option("--gap-tol", "nb__gap_tol", default=None, type=float)
@click.option("--nb-max-iter", "nb__max_iter", default=None, type=int)
@click.option("--apg-tol", "nb__apg__rel_tol", default=None, type=float)
@click.option("--apg-max-iter", "nb__apg__max_iter", default=None, type=int)
@click.option("--trace-csv", default=None, type=_output_path)
@click.option("--json", "json_path", default=None, type=_output_path)
def bound_root(instance_path, target, trace_csv, json_path, **settings):
    """Newton-bracketing bound for the root subproblem with variable 1 fixed
    to 1."""
    params = _params(bb.TreeParams, settings)
    bqop, digest = _load_bqop(instance_path)
    sub = subproblem.reduce(bqop, subproblem.FixSets(i0=(), i1=(0,)))
    # The engine's leaf rule with no small leaves: one completion, or every
    # completion costs the same, and the bound is exact.
    leaf = subproblem.feasibility_status(sub, 0, 0)
    if isinstance(leaf, subproblem.SolvedLeaf):
        lam = None
        value = float(leaf.value - sub.offset)
        res = dnn.NbResult(status="Exact", a=value, b=value, iterations=0,
                           lb_integer=leaf.value)
    else:
        prob = dnn.assemble(sub, params.lambda_scale)
        lam = prob.lam
        res = dnn.nb_bound(prob, target, params.nb)
    # A targeted bound is skipped when a completion is below the target.
    lb = res.a + sub.offset if math.isfinite(res.a) else None
    click.echo(f"status: {res.status}")
    if lb is None:
        click.echo("validated lower bound: skipped, a completion is below the target")
        click.echo(f"completion value: {int(res.b) + sub.offset}")
    else:
        click.echo(f"validated lower bound: {lb}")
    if res.lb_integer is not None:
        click.echo(f"integer lower bound: {res.lb_integer}")
    if res.blocks is not None:
        click.echo(f"node group order: {sub.group.order}")
        click.echo("blocks: " + ", ".join(f"{size}x{copies}" if copies > 1 else str(size)
                                          for size, copies in res.blocks))
    elif res.iterations:
        click.echo(f"blocks: none (full order {2 * sub.ell + 1})")
    if trace_csv:
        _write_csv(trace_csv, [dict(row) for row in res.trace], list(dnn.TRACE_FIELDS))
    if json_path:
        payload = {
            "status": res.status, "a": res.a if lb is not None else None,
            "b": res.b, "offset": sub.offset,
            "lower_bound": lb, "integer_lower_bound": res.lb_integer,
            "lambda": lam, "iterations": res.iterations,
            # The node group and blocks APG ran on; null on the full path.
            "group_order": None if res.blocks is None else sub.group.order,
            "blocks": None if res.blocks is None else [
                {"size": size, "copies": copies} for size, copies in res.blocks],
        }
        # bound-root reads only these settings of TreeParams.
        _emit(json_path, payload, digest, "bound-root", instance=instance_path,
              target=target, params={"lambda_scale": params.lambda_scale,
                                     "nb": dataclasses.asdict(params.nb)})
    sys.exit(EXIT_OK)


@main.command()
@_instance_option
@click.option("--target", required=True, type=int)
@click.option("--no-isomorphism-pruning", "iso_pruning", flag_value=False, default=None)
@click.option("--workers", "workers", default=None, type=int)
@click.option("--lambda-scale", "lambda_scale", default=None, type=float)
@click.option("--node-budget", "node_budget", default=None, type=int)
@click.option("--time-budget", "time_budget", default=None, type=float, help="Seconds.")
@click.option("--stats-csv", default=None, type=_output_path)
@click.option("--certificate-json", default=None, type=_output_path)
@click.option("--audit", "audit", flag_value=True, default=None)
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
def solve(instance_path, target, stats_csv, certificate_json, config_path, **settings):
    """Prove or refute a target lower bound by branch and bound."""
    params = _params(bb.BbParams, settings, config_path)
    bqop, digest = _load_bqop(instance_path)
    cert = bb.solve_target(bqop, target, params)
    click.echo(f"outcome: {cert.outcome}")
    click.echo(f"nodes: {cert.node_count}")
    if cert.outcome == "Refuted":
        click.echo(f"witness value: {cert.witness_value}")
    if stats_csv:
        _write_csv(stats_csv, bb.stats_csv_rows(cert))
    if certificate_json:
        _emit(certificate_json, cert.to_json_obj(), digest, "solve", instance=instance_path,
              target=target, params=dataclasses.asdict(params))
    sys.exit({"Proved": EXIT_OK, "Refuted": EXIT_REFUTED}.get(cert.outcome, EXIT_INCONCLUSIVE))


@main.command(name="estimate")
@_instance_option
@click.option("--target", required=True, type=int)
@click.option("--seeds", default="0", help="Comma-separated list of seeds.")
@click.option("--workers", "workers", default=None, type=int)
@click.option("--width-threshold", "width_threshold", default=None, type=int)
@click.option("--lambda-scale", "lambda_scale", default=None, type=float)
@click.option("--stats-csv", default=None, type=_output_path)
@click.option("--report-json", default=None, type=_output_path)
def estimate_cmd(instance_path, target, seeds, stats_csv, report_json, **settings):
    """Estimate the enumeration-tree size for a target lower bound."""
    try:
        seed_list = [int(s) for s in seeds.split(",") if s.strip() != ""]
    except ValueError:
        seed_list = []
    if not seed_list or min(seed_list) < 0:
        raise click.BadParameter(
            f"{seeds!r} is not a comma-separated list of non-negative integers",
            param_hint="'--seeds'")
    params = _params(estimator.EstParams, settings)
    bqop, digest = _load_bqop(instance_path)
    summary = estimator.estimate_multi(bqop, target, seed_list, params)
    nodes = summary["nodes"]
    click.echo(f"estimated nodes (min/mean/max): "
               f"{nodes['min']:.0f} / {nodes['mean']:.0f} / {nodes['max']:.0f}")
    if stats_csv:
        _write_csv(stats_csv, [{"seed": rep["seed"], **rec} for rep in summary["reports"]
                               for rec in rep["per_depth"]])
    if report_json:
        _emit(report_json, summary, digest, "estimate", instance=instance_path,
              target=target, seeds=seeds, params=dataclasses.asdict(params))
    complete = all(rep["complete"] for rep in summary["reports"])
    sys.exit(EXIT_OK if complete else EXIT_INCONCLUSIVE)


@main.command(name="sample-dist")
@_instance_option
@click.option("--count", default=1_000_000, type=int)
@click.option("--optimum", required=True, type=int)
@click.option("--seed", default=0, type=click.IntRange(min=0))
@click.option("--bins", default=50, type=click.IntRange(min=1))
@click.option("--csv", "csv_path", default=None, type=_output_path)
def sample_dist(instance_path, count, optimum, seed, bins, csv_path):
    """Sample feasible solutions and emit the scaled-objective histogram."""
    bqop, _ = _load_bqop(instance_path)
    dist = instance.sample_scaled_distribution(bqop, count, optimum, seed=seed, bins=bins)
    click.echo(f"samples: {dist.values.size}  mean scaled value: {dist.mean:.6f}")
    if csv_path:
        rows = [{"bin_left": dist.bin_edges[i], "bin_right": dist.bin_edges[i + 1],
                 "probability": dist.probabilities[i]}
                for i in range(dist.probabilities.size)]
        _write_csv(csv_path, rows)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
