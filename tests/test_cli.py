"""Command-line interface: subcommands, exit codes, reproducible outputs."""

import csv
import dataclasses
import hashlib
import json
import os
import time

import numpy as np
import pytest
from click.testing import CliRunner

from symbb import subproblem
from symbb.bb import BbParams, TreeParams, orbit_scores
from symbb.cli import main
from symbb.dnn import TRACE_FIELDS
from symbb.estimator import EstParams
from symbb.instance import BqopInstance, QapInstance, bqop_to_json
from symbb.subproblem import FixSets, reduce
from symbb.symmetry import automorphisms, group_to_json_obj
from tests.conftest import brute_optimum, format_qaplib, random_bqop, torus_matrix

# What each checked run setting must be, as its one-line error states.
RULES = {"nb.max_iter": "at least 1", "nb.apg.max_iter": "at least 1",
         "lambda_scale": "a positive finite number", "workers": "at least 1",
         "nb.gap_tol": "a non-negative finite number",
         "nb.apg.rel_tol": "a non-negative finite number",
         "node_budget": "at least 1", "time_budget": "a non-negative finite number",
         "width_threshold": "at least 1"}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def qap_file(tmp_path):
    f = np.array([1, 0, 1, 0, 0], dtype=np.int64)
    A = np.outer(f, f)
    rng = np.random.default_rng(30)
    B = rng.integers(0, 9, (5, 5))
    B = B + B.T
    np.fill_diagonal(B, 0)
    qap = QapInstance(n=5, A=A, B=B.astype(np.int64))
    path = tmp_path / "small.dat"
    path.write_text(format_qaplib(qap))
    return path


@pytest.fixture
def bqop_file(tmp_path):
    rng = np.random.default_rng(31)
    inst = random_bqop(rng, 7, 3)
    path = tmp_path / "small.json"
    path.write_text(bqop_to_json(inst))
    return path, inst


class TestConvert:
    def test_writes_bqop_json(self, runner, qap_file, tmp_path):
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["convert", "--instance", str(qap_file),
                                      "--output", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["n"] == 5 and data["m"] == 2
        assert data["config"]["subcommand"] == "convert"
        assert len(data["instance_sha256"]) == 64

    def test_writes_to_stdout_without_output(self, runner, qap_file):
        result = runner.invoke(main, ["convert", "--instance", str(qap_file)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["n"] == 5 and data["m"] == 2
        assert data["config"] == {"subcommand": "convert", "instance": str(qap_file)}
        assert len(data["instance_sha256"]) == 64

    def test_non_rank_one_exits_1(self, runner, tmp_path):
        A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
        qap = QapInstance(n=3, A=A, B=np.zeros((3, 3), dtype=np.int64))
        path = tmp_path / "bad.dat"
        path.write_text(format_qaplib(qap))
        result = runner.invoke(main, ["convert", "--instance", str(path)])
        assert result.exit_code == 1
        assert "rank-one" in result.output

    def test_entry_beyond_int64_exits_1(self, runner, tmp_path):
        path = tmp_path / "huge.dat"
        path.write_text("2\n0 1\n1 0\n0 12345678901234567890\n12345678901234567890 0\n")
        out = tmp_path / "out.json"
        result = runner.invoke(main, ["convert", "--instance", str(path),
                                      "--output", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1 and result.output.startswith("error: ")
        assert not out.exists()


class TestSymmetry:
    def test_group_order_line(self, runner, tmp_path, cycle6):
        inst = BqopInstance(n=6, B=cycle6, m=3)
        path = tmp_path / "cycle.json"
        path.write_text(bqop_to_json(inst))
        result = runner.invoke(main, ["symmetry", "--instance", str(path)])
        assert result.exit_code == 0
        assert "group order: 12" in result.output

    def test_fix_orbit_report(self, runner, tmp_path, cycle6):
        inst = BqopInstance(n=6, B=cycle6, m=3)
        path = tmp_path / "cycle.json"
        path.write_text(bqop_to_json(inst))
        csv_path = tmp_path / "orbits.csv"
        result = runner.invoke(main, ["symmetry", "--instance", str(path),
                                      "--fix", "1", "--orbit-csv", str(csv_path)])
        assert result.exit_code == 0
        assert "orbits after fixing variable 1" in result.output
        header = csv_path.read_text().splitlines()[0]
        assert header == "orbit,members,size,score"

    def test_fix_lists_orbits_in_branching_order(self, runner, tmp_path):
        inst = random_bqop(np.random.default_rng(3), 9, 4)
        path = tmp_path / "random.json"
        path.write_text(bqop_to_json(inst))
        csv_path = tmp_path / "orbits.csv"
        result = runner.invoke(main, ["symmetry", "--instance", str(path),
                                      "--fix", "2", "--orbit-csv", str(csv_path)])
        assert result.exit_code == 0, result.output
        ranked = orbit_scores(reduce(inst, FixSets(i0=(), i1=(1,))))
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["members"], row["score"]) for row in rows] == [
            (" ".join(str(i + 1) for i in orb.members), f"{score:.1f}")
            for orb, score in ranked]
        assert [float(row["score"]) for row in rows] == \
            sorted((float(row["score"]) for row in rows), reverse=True)

    def test_fix_leaving_no_free_variable(self, runner, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "B_lower": [0]}))
        csv_path = tmp_path / "orbits.csv"
        result = runner.invoke(main, ["symmetry", "--instance", str(path),
                                      "--fix", "1", "--orbit-csv", str(csv_path)])
        assert result.exit_code == 0
        assert result.output == ("group order: 1\n"
                                 "orbits after fixing variable 1: 0\n")
        assert csv_path.read_text().splitlines() == ["orbit,members,size,score"]

    @pytest.mark.parametrize("fix", ["0", "-1", "99"])
    def test_fix_out_of_range_exits_1(self, runner, bqop_file, fix):
        path, _ = bqop_file
        result = runner.invoke(main, ["symmetry", "--instance", str(path), "--fix", fix])
        assert result.exit_code == 1
        assert result.output == (f"error: Invalid value for '--fix': "
                                 f"{fix} is not in 1..7\n")

    def test_group_json_lists_the_elements(self, runner, tmp_path, cycle6):
        inst = BqopInstance(n=6, B=cycle6, m=3)
        path = tmp_path / "cycle.json"
        path.write_text(bqop_to_json(inst))
        outs = []
        for name in ("first.json", "second.json"):
            out = tmp_path / name
            result = runner.invoke(main, ["symmetry", "--instance", str(path),
                                          "--group-json", str(out)])
            assert result.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        data = json.loads(outs[0])
        assert data.pop("config") == {"subcommand": "symmetry", "instance": str(path)}
        assert data.pop("instance_sha256") == hashlib.sha256(path.read_bytes()).hexdigest()
        assert data == group_to_json_obj(automorphisms(cycle6), 12)
        assert len(data["elements"]) == 12
        assert sorted(data["elements"][0]) == list(range(1, 7))     # 1-based

    def test_group_cap_limits_listing(self, runner, tmp_path, two_pairs24):
        path = tmp_path / "pairs.json"
        path.write_text(bqop_to_json(two_pairs24))
        result = runner.invoke(main, ["symmetry", "--instance", str(path)])
        assert result.exit_code == 0
        assert "group order: 9731608032706560000" in result.output
        result = runner.invoke(main, ["symmetry", "--instance", str(path),
                                      "--group-json", str(tmp_path / "g.json"),
                                      "--group-cap", "1000"])
        assert result.exit_code == 1
        assert result.output == ("error: group order 9731608032706560000 "
                                 "exceeds the element cap 1000\n")


class TestBoundRoot:
    def test_prints_bound_and_json(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        out = tmp_path / "bound.json"
        result = runner.invoke(main, [
            "bound-root", "--instance", str(path), "--apg-tol", "1e-10",
            "--apg-max-iter", "4000", "--json", str(out)])
        assert result.exit_code == 0
        assert "validated lower bound:" in result.output
        data = json.loads(out.read_text())
        assert data["a"] <= data["b"]
        # The root bound is conditional on variable 1 being fixed to 1.
        import itertools
        opt1 = min(int(inst.B[np.ix_(s, s)].sum())
                   for s in (np.array((0,) + c)
                             for c in itertools.combinations(range(1, 7), 2)))
        assert data["integer_lower_bound"] <= opt1
        # Lifted order 13 is below the block crossover: the full path.
        assert result.output.splitlines()[-1] == "blocks: none (full order 13)"
        assert data["group_order"] is data["blocks"] is None

    def test_reports_node_group_blocks_on_a_torus(self, runner, tmp_path):
        f = np.zeros(36, dtype=np.int64)
        f[:11] = 1
        qap = QapInstance(n=36, A=np.outer(f, f), B=torus_matrix(6).astype(np.int64))
        path = tmp_path / "torus6.dat"
        path.write_text(format_qaplib(qap))
        out = tmp_path / "bound.json"
        result = runner.invoke(main, ["bound-root", "--instance", str(path),
                                      "--nb-max-iter", "2", "--apg-max-iter", "100",
                                      "--json", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[-2:] == ["node group order: 8",
                                                   "blocks: 19, 16x2, 12, 6, 2"]
        data = json.loads(out.read_text())
        assert data["group_order"] == 8
        assert data["blocks"] == [{"size": 19, "copies": 1}, {"size": 16, "copies": 2},
                                  {"size": 12, "copies": 1}, {"size": 6, "copies": 1},
                                  {"size": 2, "copies": 1}]

    def test_trace_csv(self, runner, bqop_file, tmp_path):
        path, _ = bqop_file
        trace = tmp_path / "trace.csv"
        result = runner.invoke(main, [
            "bound-root", "--instance", str(path), "--apg-tol", "1e-10",
            "--apg-max-iter", "4000", "--trace-csv", str(trace)])
        assert result.exit_code == 0
        header = trace.read_text().splitlines()[0]
        assert header.startswith("k,y,a,b,g,gprime")
        assert header.endswith(",apg_stop")

    def test_json_records_nb_and_apg_params(self, runner, bqop_file, tmp_path):
        path, _ = bqop_file
        out = tmp_path / "bound.json"
        result = runner.invoke(main, [
            "bound-root", "--instance", str(path), "--apg-tol", "1e-9",
            "--apg-max-iter", "3000", "--nb-max-iter", "30", "--json", str(out)])
        assert result.exit_code == 0
        params = json.loads(out.read_text())["config"]["params"]
        assert params == {"lambda_scale": 1e8, "nb": {
            "gap_tol": 1e-6, "max_iter": 30, "apg": {"rel_tol": 1e-9, "max_iter": 3000}}}

    @pytest.mark.parametrize("value, flag, name", [
        *[(cap, flag, name) for cap in ("0", "-1")
          for flag, name in (("--nb-max-iter", "nb.max_iter"),
                             ("--apg-max-iter", "nb.apg.max_iter"))],
        *[(value, "--lambda-scale", "lambda_scale")
          for value in ("0.0", "-1.0", "nan", "inf")],
        *[(value, flag, name) for value in ("-1.0", "nan", "inf")
          for flag, name in (("--gap-tol", "nb.gap_tol"),
                             ("--apg-tol", "nb.apg.rel_tol"))],
    ])
    def test_cap_below_1_exits_1(self, runner, bqop_file, tmp_path, value, flag, name):
        path, _ = bqop_file
        out = tmp_path / "bound.json"
        result = runner.invoke(main, ["bound-root", "--instance", str(path),
                                      flag, value, "--json", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: {name} must be {RULES[name]}, not {value}\n"
        assert not out.exists()

    def test_zero_reduced_matrix_is_exact(self, runner, tmp_path):
        inst = BqopInstance(n=5, B=np.zeros((5, 5), dtype=np.int64), m=2)
        path = tmp_path / "zero.json"
        path.write_text(bqop_to_json(inst))
        out = tmp_path / "bound.json"
        result = runner.invoke(main, ["bound-root", "--instance", str(path),
                                      "--json", str(out)])
        assert result.exit_code == 0, result.output
        assert "status: Exact" in result.output
        assert "integer lower bound: 0" in result.output
        data = json.loads(out.read_text())
        assert data["status"] == "Exact"
        assert data["lower_bound"] == data["integer_lower_bound"] == 0

    def test_uniform_reduced_matrix_is_exact(self, runner, tmp_path, monkeypatch):
        # Every off-diagonal entry 5: with variable 1 fixed to one, each of the
        # 19 other ones costs 2 * 5 on the diagonal and 5 per ordered pair,
        # 190 + 1710 in all.  The node group, S_59, is never searched.
        monkeypatch.setattr(subproblem, "automorphisms", None)
        B = np.full((60, 60), 5, dtype=np.int64)
        np.fill_diagonal(B, 0)
        path = tmp_path / "uniform.json"
        path.write_text(bqop_to_json(BqopInstance(n=60, B=B, m=20)))
        out = tmp_path / "bound.json"
        start = time.monotonic()
        result = runner.invoke(main, ["bound-root", "--instance", str(path),
                                      "--json", str(out)])
        assert time.monotonic() - start < 1.0
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            "status: Exact", "validated lower bound: 1900.0", "integer lower bound: 1900"]
        data = json.loads(out.read_text())
        assert data["status"] == "Exact" and data["lambda"] is None
        assert data["lower_bound"] == data["integer_lower_bound"] == 1900

    @pytest.mark.parametrize("m", [1, 4])
    def test_single_completion_is_exact(self, runner, tmp_path, m):
        # With variable 1 fixed to one, residual 0 (m = 1) or residual ell
        # (m = n) leaves one completion: x_1 alone, or every variable.
        B = np.array([[0, 3, -7, 2], [3, 0, 5, -4], [-7, 5, 0, 6], [2, -4, 6, 0]])
        inst = BqopInstance(n=4, B=B.astype(np.int64), m=m)
        path = tmp_path / "one.json"
        path.write_text(bqop_to_json(inst))
        out = tmp_path / "bound.json"
        result = runner.invoke(main, ["bound-root", "--instance", str(path),
                                      "--json", str(out)])
        assert result.exit_code == 0, result.output
        value = int(B[:m, :m].sum())
        assert result.output.splitlines() == [
            "status: Exact", f"validated lower bound: {float(value)}",
            f"integer lower bound: {value}"]
        data = json.loads(out.read_text())
        assert data["status"] == "Exact" and data["lambda"] is None
        assert data["lower_bound"] == data["integer_lower_bound"] == value

    def test_target_above_a_completion_skips_the_bound(self, runner, bqop_file,
                                                       tmp_path):
        path, inst = bqop_file
        out, trace = tmp_path / "bound.json", tmp_path / "trace.csv"
        result = runner.invoke(main, ["bound-root", "--instance", str(path),
                                      "--target", str(10 ** 6), "--json", str(out),
                                      "--trace-csv", str(trace)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[:2] == ["status: Branchable",
                             "validated lower bound: skipped, a completion is "
                             "below the target"]
        value = int(lines[2].removeprefix("completion value: "))
        assert brute_optimum(inst) <= value < 10 ** 6
        assert len(lines) == 3
        text = out.read_text()
        assert "Infinity" not in text and "NaN" not in text
        data = json.loads(text)
        assert data["status"] == "Branchable" and data["iterations"] == 0
        assert data["a"] is data["lower_bound"] is data["integer_lower_bound"] is None
        assert data["b"] + data["offset"] == value
        assert data["group_order"] is data["blocks"] is None
        # No trace rows, but the header still names the columns.
        assert trace.read_text().splitlines() == [",".join(TRACE_FIELDS)]

    def test_json_rejects_values_without_a_json_form(self, tmp_path):
        from symbb.cli import _emit
        with pytest.raises(ValueError):
            _emit(str(tmp_path / "x.json"), {"a": float("-inf")}, "0" * 64, "bound-root")


class TestSolve:
    def test_group_beyond_int64_solved(self, runner, tmp_path, two_pairs24):
        path = tmp_path / "pairs.json"
        path.write_text(bqop_to_json(two_pairs24))
        result = runner.invoke(main, ["solve", "--instance", str(path),
                                      "--target", "-6"])
        assert result.exit_code == 0, result.output
        assert "outcome: Proved" in result.output

    def test_values_beyond_exact_arithmetic_exit_1(self, runner, tmp_path):
        # Every objective value, 6 * 2^61, overflows int64; the instance is
        # refused before a wrapped value can refute the target.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 6, "m": 3, "B_lower": [
            0 if i == j else 2 ** 61 for i in range(6) for j in range(i + 1)]}))
        cert = tmp_path / "cert.json"
        result = runner.invoke(main, ["solve", "--instance", str(path), "--target", "0",
                                      "--certificate-json", str(cert)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1 and result.output.startswith("error: ")
        assert "2^53" in result.output
        assert not cert.exists()

    def test_proved_exit_0(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        opt = brute_optimum(inst)
        cert = tmp_path / "cert.json"
        stats = tmp_path / "stats.csv"
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", str(opt),
            "--certificate-json", str(cert), "--stats-csv", str(stats)])
        assert result.exit_code == 0
        assert "outcome: Proved" in result.output
        data = json.loads(cert.read_text())
        assert data["outcome"] == "Proved"
        assert data["config"]["target"] == opt
        assert stats.read_text().startswith("depth,")

    def test_refuted_exit_2(self, runner, bqop_file):
        path, inst = bqop_file
        opt = brute_optimum(inst)
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", str(opt + 1)])
        assert result.exit_code == 2
        assert f"witness value: {opt}" in result.output

    def test_budget_exit_3(self, runner, tmp_path):
        rng = np.random.default_rng(32)
        inst = random_bqop(rng, 10, 5)
        path = tmp_path / "ten.json"
        path.write_text(bqop_to_json(inst))
        result = runner.invoke(main, [
            "solve", "--instance", str(path),
            "--target", str(brute_optimum(inst)), "--node-budget", "2"])
        assert result.exit_code == 3

    def test_rerun_byte_stable_excluding_timing(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        opt = brute_optimum(inst)
        outs = []
        for name in ("a.json", "b.json"):
            cert = tmp_path / name
            result = runner.invoke(main, [
                "solve", "--instance", str(path), "--target", str(opt),
                "--certificate-json", str(cert)])
            assert result.exit_code == 0
            data = json.loads(cert.read_text())
            data.pop("timing")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_no_flags_records_default_params(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        cert = tmp_path / "cert.json"
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", str(brute_optimum(inst)),
            "--certificate-json", str(cert)])
        assert result.exit_code == 0
        params = json.loads(cert.read_text())["config"]["params"]
        assert params == dataclasses.asdict(BbParams())

    def test_config_override(self, runner, tmp_path):
        rng = np.random.default_rng(33)
        inst = random_bqop(rng, 10, 5)
        path = tmp_path / "ten.json"
        path.write_text(bqop_to_json(inst))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_budget": 2}))
        result = runner.invoke(main, [
            "solve", "--instance", str(path),
            "--target", str(brute_optimum(inst)), "--config", str(cfg)])
        # The overridden budget forces an inconclusive run.
        assert result.exit_code == 3
        assert "outcome: Inconclusive" in result.output

    def test_nested_config_override(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nb": {"gap_tol": 1e-5, "apg": {"max_iter": 4000}}}))
        cert = tmp_path / "cert.json"
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", str(brute_optimum(inst)),
            "--config", str(cfg), "--certificate-json", str(cert)])
        assert result.exit_code == 0
        nb = json.loads(cert.read_text())["config"]["params"]["nb"]
        assert nb["gap_tol"] == 1e-5 and nb["apg"]["max_iter"] == 4000

    @pytest.mark.parametrize("overrides, key", [
        ({"bogus": 1}, "bogus"),
        ({"nb": {"bogus": 1}}, "nb.bogus"),
        ({"nb": 3}, "nb"),
        ({"workers": "two"}, "workers"),
    ])
    def test_bad_config_exits_1(self, runner, bqop_file, tmp_path, overrides, key):
        path, inst = bqop_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", "0", "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        if key == "workers":
            # A value of the wrong type is refused by the dataclass itself.
            assert result.output == "error: workers must be int, not 'two'\n"
        else:
            assert result.output.count("\n") == 1 and repr(key) in result.output

    @pytest.mark.parametrize("overrides, line", [
        ({"nb": {"apg": {"max_iter": 2.5}}}, "nb.apg.max_iter must be int, not 2.5"),
        ({"nb": {"gap_tol": [1]}}, "nb.gap_tol must be float, not [1]"),
        ({"time_budget": True}, "time_budget must be float | None, not True"),
        ({"node_budget": "5"}, "node_budget must be int | None, not '5'"),
        ({"iso_pruning": "no"}, "iso_pruning must be bool, not 'no'"),
        ({"audit": 1}, "audit must be bool, not 1"),
        ({"leaf_threshold": None}, "leaf_threshold must be int, not None"),
    ])
    def test_config_of_the_wrong_type_exits_1(self, runner, bqop_file, tmp_path,
                                              overrides, line):
        path, _ = bqop_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", "0", "--config", str(cfg)])
        assert result.exit_code == 1
        assert result.output == f"error: {line}\n"

    @pytest.mark.parametrize("overrides, name", [
        ({"nb": {"max_iter": 0}}, "nb.max_iter"),
        ({"nb": {"apg": {"max_iter": 0}}}, "nb.apg.max_iter"),
        # json.dumps writes NaN and Infinity, and json.loads reads them.
        ({"lambda_scale": float("nan")}, "lambda_scale"),
        ({"lambda_scale": float("inf")}, "lambda_scale"),
        ({"lambda_scale": -1}, "lambda_scale"),
        ({"workers": 0}, "workers"),
        ({"nb": {"gap_tol": float("nan")}}, "nb.gap_tol"),
        ({"nb": {"gap_tol": -1e-6}}, "nb.gap_tol"),
        ({"nb": {"apg": {"rel_tol": float("inf")}}}, "nb.apg.rel_tol"),
        ({"nb": {"apg": {"rel_tol": -1}}}, "nb.apg.rel_tol"),
        ({"node_budget": 0}, "node_budget"),
        ({"time_budget": float("nan")}, "time_budget"),
        ({"time_budget": float("inf")}, "time_budget"),
        ({"time_budget": -1}, "time_budget"),
    ])
    def test_config_cap_below_1_exits_1(self, runner, bqop_file, tmp_path,
                                        overrides, name):
        path, _ = bqop_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        cert = tmp_path / "cert.json"
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", "0", "--config", str(cfg),
            "--certificate-json", str(cert)])
        value = overrides
        while isinstance(value, dict):
            (value,) = value.values()
        assert result.exit_code == 1
        assert result.output == f"error: {name} must be {RULES[name]}, not {value}\n"
        assert not cert.exists()

    @pytest.mark.parametrize("flag, value, name", [
        ("--node-budget", "0", "node_budget"),
        ("--node-budget", "-1", "node_budget"),
        ("--time-budget", "nan", "time_budget"),
        ("--time-budget", "inf", "time_budget"),
        ("--time-budget", "-1.0", "time_budget"),
    ])
    def test_bad_budget_exits_1(self, runner, bqop_file, tmp_path, flag, value, name):
        path, _ = bqop_file
        cert = tmp_path / "cert.json"
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", "0", flag, value,
            "--certificate-json", str(cert)])
        assert result.exit_code == 1
        assert result.output == f"error: {name} must be {RULES[name]}, not {value}\n"
        assert not cert.exists()

    @pytest.mark.parametrize("where", ["missing_directory", "is_directory"])
    def test_config_checkpoint_unwritable_exits_1(self, runner, bqop_file, tmp_path,
                                                  where):
        # The certificate holds the frontier; no run writes a checkpoint, so
        # a --config checkpoint_path is an unknown key, refused before any work.
        path, _ = bqop_file
        checkpoint = {"missing_directory": str(tmp_path / "none" / "ck.json"),
                      "is_directory": str(tmp_path)}[where]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checkpoint_path": checkpoint, "node_budget": 1}))
        cert = tmp_path / "cert.json"
        result = runner.invoke(main, [
            "solve", "--instance", str(path), "--target", "0", "--config", str(cfg),
            "--certificate-json", str(cert)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "error: --config: unknown key 'checkpoint_path'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, cfg.name])

    @pytest.mark.parametrize("text, message", [
        ("{", "--config is not valid JSON: "),
        ("[1]", "--config must contain a JSON object\n")])
    def test_config_not_a_json_object_exits_1(self, runner, bqop_file, tmp_path,
                                              text, message):
        path, _ = bqop_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        result = runner.invoke(main, ["solve", "--instance", str(path), "--target", "0",
                                      "--config", str(cfg)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: " + message)

    def test_certificate_records_resolved_params(self, runner, tmp_path):
        rng = np.random.default_rng(33)
        inst = random_bqop(rng, 10, 5)
        path = tmp_path / "ten.json"
        path.write_text(bqop_to_json(inst))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"node_budget": 4, "leaf_threshold": 5}))
        args = ["solve", "--instance", str(path), "--target", str(brute_optimum(inst))]
        first = tmp_path / "first.json"
        result = runner.invoke(main, args + ["--config", str(cfg),
                                             "--certificate-json", str(first)])
        assert result.exit_code in (0, 3)
        code = result.exit_code
        data = json.loads(first.read_text())
        params = data["config"]["params"]
        assert params["node_budget"] == 4 and params["leaf_threshold"] == 5
        # The recorded params are themselves a --config that reruns the run.
        cfg.write_text(json.dumps(params))
        second = tmp_path / "second.json"
        result = runner.invoke(main, args + ["--config", str(cfg),
                                             "--certificate-json", str(second)])
        assert result.exit_code == code
        rerun = json.loads(second.read_text())
        for obj in (data, rerun):
            obj.pop("timing")
        assert rerun == data


class TestSettingsFlags:
    # The output that records each command's params, the params dataclass
    # its settings flags set, and each flag with a value other than its
    # default (None for a flag that takes none) and the value it sets.
    FLAGS = {
        "solve": ("--certificate-json", BbParams, [
            ("--no-isomorphism-pruning", None, False), ("--workers", "2", 2),
            ("--lambda-scale", "1e7", 1e7), ("--node-budget", "1000", 1000),
            ("--time-budget", "100", 100.0), ("--audit", None, True)]),
        "estimate": ("--report-json", EstParams, [
            ("--workers", "2", 2), ("--width-threshold", "7", 7),
            ("--lambda-scale", "1e7", 1e7)]),
        "bound-root": ("--json", TreeParams, [
            ("--lambda-scale", "1e7", 1e7), ("--gap-tol", "1e-5", 1e-5),
            ("--nb-max-iter", "30", 30), ("--apg-tol", "1e-9", 1e-9),
            ("--apg-max-iter", "3000", 3000)]),
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_each_flag_sets_the_field_it_names(self, runner, bqop_file, tmp_path, command):
        # A settings flag's parameter name is the path of its field, with
        # "__" between the names: every one is given once, and each lands
        # at that path in config.params.
        path, inst = bqop_file
        option, cls, flags = self.FLAGS[command]
        names = {f.name for f in dataclasses.fields(cls)}
        fields = {param.opts[0]: param.name.split("__")
                  for param in main.commands[command].params
                  if param.name.split("__")[0] in names}
        assert sorted(fields) == sorted(flag for flag, _, _ in flags)
        out = tmp_path / "out.json"
        target = [] if command == "bound-root" else ["--target", str(brute_optimum(inst))]
        args = [arg for flag, text, _ in flags for arg in (flag, text) if arg is not None]
        result = runner.invoke(main, [command, "--instance", str(path), *target, *args,
                                      option, str(out)])
        assert result.exit_code == 0
        params = json.loads(out.read_text())["config"]["params"]
        for flag, _, value in flags:
            found = params
            for part in fields[flag]:
                found = found[part]
            assert found == value, flag


class TestEstimate:
    def test_summary_and_json(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        out = tmp_path / "est.json"
        result = runner.invoke(main, [
            "estimate", "--instance", str(path),
            "--target", str(brute_optimum(inst)), "--seeds", "0,1",
            "--report-json", str(out)])
        assert result.exit_code == 0
        assert "estimated nodes (min/mean/max):" in result.output
        data = json.loads(out.read_text())
        assert data["seeds"] == [0, 1]
        assert data["config"]["subcommand"] == "estimate"
        assert data["config"]["params"]["width_threshold"] == 1000


    def test_stats_csv_one_row_per_seed_and_level(self, runner, bqop_file, tmp_path):
        path, inst = bqop_file
        out, stats = tmp_path / "est.json", tmp_path / "est.csv"
        result = runner.invoke(main, [
            "estimate", "--instance", str(path), "--target", str(brute_optimum(inst)),
            "--seeds", "0,1", "--report-json", str(out), "--stats-csv", str(stats)])
        assert result.exit_code == 0
        with open(stats, newline="") as fh:
            rows = list(csv.DictReader(fh))
        reports = json.loads(out.read_text())["reports"]
        assert [(int(r["seed"]), int(r["depth"])) for r in rows] == [
            (rep["seed"], rec["depth"]) for rep in reports for rec in rep["per_depth"]]
        assert {rep["seed"] for rep in reports} == {0, 1}

    def test_stats_csv_with_a_sampled_level(self, runner, tmp_path):
        # The k = 5 torus at 160 reaches width 4 at level 3: levels 1 and 2
        # are counted whole, with no t_hat, and the later ones sampled.
        path = tmp_path / "torus.json"
        path.write_text(bqop_to_json(BqopInstance(n=25, B=torus_matrix(5).astype(np.int64),
                                                  m=9)))
        stats = tmp_path / "est.csv"
        result = runner.invoke(main, ["estimate", "--instance", str(path), "--target", "160",
                                      "--width-threshold", "4", "--stats-csv", str(stats)])
        assert result.exit_code == 0, result.output
        with open(stats, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["t_hat"] for r in rows[:3]] == ["", "", "4.0"]

    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_width_threshold_below_1_exits_1(self, runner, bqop_file, tmp_path, value):
        path, _ = bqop_file
        out = tmp_path / "est.json"
        result = runner.invoke(main, ["estimate", "--instance", str(path), "--target", "0",
                                      "--width-threshold", value, "--report-json", str(out)])
        assert result.exit_code == 1
        assert result.output == f"error: width_threshold must be {RULES['width_threshold']}, " \
                                f"not {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["", ",", "a,b", "1.5", "-1", "0,-1"])
    def test_bad_seeds_exit_1(self, runner, bqop_file, seeds):
        path, _ = bqop_file
        result = runner.invoke(main, ["estimate", "--instance", str(path),
                                      "--target", "0", "--seeds", seeds])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: Invalid value for '--seeds'")


class TestSampleDist:
    def test_histogram_csv(self, runner, bqop_file, tmp_path):
        path, _ = bqop_file
        csv_path = tmp_path / "hist.csv"
        result = runner.invoke(main, [
            "sample-dist", "--instance", str(path), "--count", "200",
            "--optimum", "50", "--csv", str(csv_path)])
        assert result.exit_code == 0
        assert "samples: 200" in result.output
        assert csv_path.read_text().startswith("bin_left,bin_right,probability")

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_bins_below_1_exits_1(self, runner, bqop_file, bins):
        path, _ = bqop_file
        result = runner.invoke(main, [
            "sample-dist", "--instance", str(path), "--count", "20",
            "--optimum", "50", "--bins", bins])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: Invalid value for '--bins'")

    def test_count_below_1_exits_1(self, runner, bqop_file, tmp_path):
        path, _ = bqop_file
        out = tmp_path / "hist.csv"
        result = runner.invoke(main, [
            "sample-dist", "--instance", str(path), "--count", "0",
            "--optimum", "50", "--csv", str(out)])
        assert result.exit_code == 1
        assert result.output == "error: sample count must be positive\n"
        assert not out.exists()

    def test_negative_seed_exits_1(self, runner, bqop_file, tmp_path):
        path, _ = bqop_file
        out = tmp_path / "dist.csv"
        result = runner.invoke(main, [
            "sample-dist", "--instance", str(path), "--count", "20",
            "--optimum", "50", "--seed", "-1", "--csv", str(out)])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: Invalid value for '--seed'")
        assert not out.exists()


MALFORMED = {
    "invalid_json.json": b'{"n": 3, "m": 1,',
    "missing_key.json": b'{"n": 2, "B_lower": [0, 1, 0]}',
    "non_integer.json": b'{"n": 2, "m": 1, "B_lower": [0, "x", 0]}',
    "not_utf8.dat": b"2\n\xff\xfe\n",
    "dimension_zero.dat": b"0\n",
    "dimension_negative.dat": b"-2\n",
    "flow_not_binary.dat": b"2\n0 2\n2 0\n0 1\n1 0\n",
    "flow_zero.dat": b"2\n0 0\n0 0\n0 1\n1 0\n",
    "flow_full_support.dat": b"2\n0 1\n1 0\n0 1\n1 0\n",
}
COMMANDS = {
    "convert": [],
    "symmetry": ["--fix", "1"],
    "bound-root": [],
    "solve": ["--target", "0"],
    "estimate": ["--target", "0"],
    "sample-dist": ["--optimum", "1"],
}

# Every option that names a file to write, with the command that takes it.
OUTPUTS = [("convert", "--output"), ("symmetry", "--orbit-csv"),
           ("symmetry", "--group-json"), ("bound-root", "--trace-csv"),
           ("bound-root", "--json"), ("solve", "--stats-csv"),
           ("solve", "--certificate-json"), ("estimate", "--stats-csv"),
           ("estimate", "--report-json"), ("sample-dist", "--csv")]


class TestErrorExit:
    @pytest.mark.parametrize("where", ["missing_directory", "is_directory",
                                       "trailing_separator", "empty"])
    @pytest.mark.parametrize("command, option", OUTPUTS)
    def test_unwritable_output_exits_1_before_work(self, runner, bqop_file, tmp_path,
                                                   command, option, where):
        path, _ = bqop_file
        out = {"missing_directory": str(tmp_path / "none" / "out.txt"),
               "is_directory": str(tmp_path),
               "trailing_separator": str(tmp_path / "new") + "/",
               "empty": ""}[where]
        result = runner.invoke(main, [command, "--instance", str(path),
                                      *COMMANDS[command], option, out])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        # One line and nothing else: the error comes before any work.
        assert result.output.count("\n") == 1
        assert result.output.startswith(f"error: Invalid value for '{option}'")
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize("command", ["solve", "estimate"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_1_exits_1(self, runner, bqop_file, command, workers):
        path, _ = bqop_file
        result = runner.invoke(main, [command, "--instance", str(path), "--target", "0",
                                      "--workers", workers])
        assert result.exit_code == 1
        assert result.output == f"error: workers must be at least 1, not {workers}\n"
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_malformed_instance_exits_1(self, runner, tmp_path, name, command):
        path = tmp_path / name
        path.write_bytes(MALFORMED[name])
        result = runner.invoke(main, [command, "--instance", str(path), *COMMANDS[command]])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.count("\n") == 1 and result.output.startswith("error: ")

    def test_missing_target_exits_1(self, runner, bqop_file):
        path, _ = bqop_file
        result = runner.invoke(main, ["solve", "--instance", str(path)])
        assert result.exit_code == 1
        assert result.output == "error: Missing option '--target'.\n"

    def test_missing_instance_file_exits_1(self, runner, tmp_path):
        result = runner.invoke(main, ["solve", "--instance", str(tmp_path / "none.json"),
                                      "--target", "0"])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: Invalid value for '--instance'")

    @pytest.mark.parametrize("args", [[], ["--bogus"], ["bogus"]])
    def test_group_usage_errors_exit_1(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.output.count("\n") == 1 and result.output.startswith("error: ")


class TestWrite:
    """Every output file goes through one write rule: through a temp file
    and a rename where the target is new or a regular file, in place where
    it is something else, such as a FIFO; a symlink is followed."""

    @staticmethod
    def inconclusive_solve(runner, tmp_path, out):
        """Solve a 10-variable instance with a node budget of 2, which ends
        after level 1 with survivors left, writing the certificate to
        ``out``."""
        inst = random_bqop(np.random.default_rng(15), 10, 5)
        path = tmp_path / "ten.json"
        path.write_text(bqop_to_json(inst))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"leaf_threshold": 4, "leaf_band": 2, "node_budget": 2}))
        return runner.invoke(main, ["solve", "--instance", str(path), "--target",
                                    str(brute_optimum(inst)), "--config", str(cfg),
                                    "--certificate-json", str(out)])

    def test_certificate_carries_the_frontier(self, runner, tmp_path):
        out = tmp_path / "out" / "cert.json"
        out.parent.mkdir()
        for _ in range(2):
            # A new file, then a regular file replaced.
            result = self.inconclusive_solve(runner, tmp_path, out)
            assert result.exit_code == 3, result.output
            assert [p.name for p in out.parent.iterdir()] == ["cert.json"]
        data = json.loads(out.read_text())
        assert data["outcome"] == "Inconclusive"
        assert len(data["frontier"]) == data["per_depth"][-1]["active"] > 0
        assert all(entry["depth"] == 1 for entry in data["frontier"])

    def test_temp_name_taken_exits_1(self, runner, tmp_path):
        out = tmp_path / "cert.json"
        (tmp_path / "cert.json.tmp").mkdir()
        result = self.inconclusive_solve(runner, tmp_path, out)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        # The run finished; only writing its certificate failed.
        assert result.stdout == "outcome: Inconclusive\nnodes: 3\n"
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
        assert not out.exists()

    def test_fifo_stays_a_fifo(self, runner, tmp_path):
        out = tmp_path / "cert.fifo"
        os.mkfifo(out)
        # A reader that does not block, so the write can open the FIFO.
        fd = os.open(out, os.O_RDONLY | os.O_NONBLOCK)
        try:
            result = self.inconclusive_solve(runner, tmp_path, out)
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        assert result.exit_code == 3, result.output
        assert json.loads(b"".join(chunks))["outcome"] == "Inconclusive"
        assert out.is_fifo()

    def test_symlink_into_a_missing_directory_exits_1_before_work(self, runner, tmp_path):
        link = tmp_path / "cert.json"
        link.symlink_to(tmp_path / "none" / "cert.json")
        result = self.inconclusive_solve(runner, tmp_path, link)
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("error: Invalid value for '--certificate-json'")

    @pytest.mark.parametrize("existing", [False, True])
    def test_symlink_is_written_through(self, runner, tmp_path, existing):
        target = tmp_path / "data" / "cert.json"
        target.parent.mkdir()
        if existing:
            target.write_text("old")
        link = tmp_path / "cert.json"
        link.symlink_to(target)
        result = self.inconclusive_solve(runner, tmp_path, link)
        assert result.exit_code == 3, result.output
        assert link.is_symlink() and link.resolve() == target
        assert json.loads(target.read_text())["outcome"] == "Inconclusive"
        assert [p.name for p in target.parent.iterdir()] == ["cert.json"]
