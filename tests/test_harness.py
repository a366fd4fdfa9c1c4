import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import costap as cs
from costap.harness_cli import _splitmix64, _trial_waveform


class TestLoadScenario:
    def test_bundled_scenario_values(self, default_cfg):
        assert (default_cfg.M, default_cfg.N, default_cfg.L) == (5, 8, 8)
        assert default_cfg.clutter.patches == 25
        assert default_cfg.kappa == 1.0 and default_cfg.power == 1.0
        assert default_cfg.target.azimuth == 0.0
        assert abs(default_cfg.target.elevation - np.pi / 3) <= 1e-12
        assert default_cfg.target.doppler == -0.1443
        assert default_cfg.noise_decay == 0.005
        assert len(default_cfg.interferers) == 1
        assert default_cfg.interferers[0].azimuth == 0.3941
        lo, hi = default_cfg.clutter.azimuth_span
        assert abs(lo + np.pi / 2) <= 1e-12 and abs(hi - np.pi / 2) <= 1e-12

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(cs.ParseError):
            cs.load_scenario(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(cs.ParseError):
            cs.load_scenario(path)

    def test_negative_power_names_field(self, tmp_path):
        doc = {"dims": {"M": 1, "N": 2, "L": 1},
               "target": {"azimuth": 0.0, "elevation": 0.5, "doppler": 0.1},
               "power": -1.0}
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cs.ValidationError, match="power") as err:
            cs.load_scenario(path)
        assert err.value.field == "power"

    def test_defaults_applied(self):
        cfg = cs.scenario_from_dict({
            "dims": {"M": 1, "N": 2, "L": 1},
            "target": {"azimuth": 0.0, "elevation": 0.5, "doppler": 0.1},
        })
        assert cfg.kappa == 1.0 and cfg.power == 1.0
        assert cfg.noise_decay == 0.005
        assert cfg.interferers == ()
        assert cfg.clutter.patches == 1
        assert cfg.seed == 0

    def test_missing_required_field(self):
        with pytest.raises(cs.ValidationError, match="dims"):
            cs.scenario_from_dict({"target": {"azimuth": 0, "elevation": 0, "doppler": 0}})

    def test_readme_scenario_is_the_bundled_demo(self, default_cfg):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme[readme.index("## Scenario files"):]
        block = section[section.index("```json") + len("```json"):]
        doc = json.loads(block[:block.index("```")])
        assert cs.scenario_from_dict(doc) == default_cfg


class TestTrialSeeding:
    def test_splitmix_is_deterministic_and_distinct(self):
        vals = [_splitmix64(1729, t) for t in range(100)]
        assert vals == [_splitmix64(1729, t) for t in range(100)]
        assert len(set(vals)) == 100
        # a NumPy integer seed, which ExperimentSpec accepts, gives the same stream
        assert vals == [_splitmix64(np.int64(1729), t) for t in range(100)]

    def test_trial_waveforms_interior_and_reproducible(self, small_cfg):
        s0 = _trial_waveform(small_cfg, 42, 3)
        s1 = _trial_waveform(small_cfg, 42, 3)
        assert np.array_equal(s0, s1)
        assert np.linalg.norm(s0) ** 2 <= small_cfg.power


class TestRunComparison:
    def test_trivial_table_matches_initial_objective(self, small_cfg):
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp",),
                                 trials=1, max_iter=0, seed=small_cfg.seed)
        traces, table = cs.run_comparison(spec)
        assert len(table.rows) == 1
        trace = traces["qcqp"][0]
        assert table.rows[0].mean_final_objective == trace.records[0].full_objective
        assert table.rows[0].trials == 1

    def test_determinism(self, small_cfg):
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp", "cls"),
                                 trials=2, max_iter=3, seed=11)
        _, t1 = cs.run_comparison(spec)
        _, t2 = cs.run_comparison(spec)
        assert t1 == t2

    def test_trial_isolation(self, small_cfg):
        full = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp", "cls"),
                                 trials=2, max_iter=3, seed=11)
        only = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp",),
                                 trials=2, max_iter=3, seed=11)
        traces_full, _ = cs.run_comparison(full)
        traces_only, _ = cs.run_comparison(only)
        for a, b in zip(traces_full["qcqp"], traces_only["qcqp"]):
            for ra, rb in zip(a.records, b.records):
                assert np.array_equal(ra.s, rb.s)
                assert np.array_equal(ra.w, rb.w)

    def test_rescale_adds_rows(self, small_cfg):
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp",), rescale=True,
                                 trials=1, max_iter=2, seed=5)
        _, table = cs.run_comparison(spec)
        labels = [r.algorithm for r in table.rows]
        assert labels == ["qcqp[root]", "qcqp[root]+rescaled"]

    def test_failed_cells_recorded(self, small_cfg, failing_direct):
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("am-direct", "qcqp"),
                                 lambda_mode="zero", trials=1, max_iter=2, seed=5)
        traces, table = cs.run_comparison(spec)
        assert traces["am-direct"][0] is None
        assert traces["qcqp"][0] is not None
        assert len(table.failures) == 1
        assert table.failures[0][0] == "am-direct"

    def test_spec_validation(self, small_cfg):
        with pytest.raises(cs.ValidationError, match="trials"):
            cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp",), trials=0)
        with pytest.raises(cs.ValidationError, match="solvers"):
            cs.ExperimentSpec(scenario=small_cfg, solvers=())
        for kwargs, field in (({"solvers": ("qcqp", "newton")}, "solver"),
                              ({"max_iter": -1}, "max_iter"),
                              ({"max_iter": 2.5}, "max_iter"),
                              ({"lambda_mode": "bogus"}, "lambda_mode"),
                              ({"trials": 1.5}, "trials"),
                              ({"trials": True}, "trials"),
                              ({"seed": -1}, "seed"),
                              ({"seed": 1.5}, "seed")):
            with pytest.raises(cs.ValidationError) as err:
                cs.ExperimentSpec(scenario=small_cfg, **{"solvers": ("qcqp",), **kwargs})
            assert err.value.field == field


class TestEmitTrace:
    def test_empty_trace_header_only(self, tmp_path):
        trace = cs.IterateTrace(records=[], solver="qcqp")
        path = tmp_path / "empty.csv"
        cs.emit_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines == [",".join(cs.harness_cli.TRACE_COLUMNS)]

    def test_csv_roundtrip(self, small_cfg, tmp_path):
        report = cs.run(small_cfg, "qcqp", max_iter=4, rescale=True)
        path = tmp_path / "trace.csv"
        cs.emit_trace(report.trace, path, "csv")
        _, rows = cs.read_trace(path, "csv")
        assert len(rows) == 5
        for rec, row in zip(report.trace.records, rows):
            assert row["iter"] == rec.iteration
            assert row["objective"] == rec.full_objective
            assert row["power"] == rec.power
            assert row["multiplier"] == rec.multiplier
            assert row["rescaled_objective"] == rec.rescaled_objective

    def test_json_roundtrip(self, small_cfg, tmp_path):
        report = cs.run(small_cfg, "cls", max_iter=3)
        path = tmp_path / "trace.json"
        cs.emit_trace(report.trace, path, "json")
        meta, rows = cs.read_trace(path, "json")
        assert meta["solver"] == "cls"
        assert meta["lambda_mode"] == "root"
        assert meta["seed"] == small_cfg.seed
        for rec, row in zip(report.trace.records, rows):
            assert row["objective"] == rec.full_objective
            assert row["step_s"] == rec.step_s

    def test_non_finite_drift_roundtrips(self, small_cfg, tmp_path):
        report = cs.run(small_cfg, "qcqp", max_iter=2)
        report.trace.records[1].drift = float("nan")
        for fmt in ("csv", "json"):
            path = tmp_path / f"t.{fmt}"
            cs.emit_trace(report.trace, path, fmt)
            _, rows = cs.read_trace(path, fmt)
            assert np.isnan(rows[1]["drift"])

    def test_row_count_includes_initialization(self, small_cfg, tmp_path):
        report = cs.run(small_cfg, "qcqp", max_iter=20)
        path = tmp_path / "t.csv"
        cs.emit_trace(report.trace, path)
        assert len(path.read_text().splitlines()) == 22  # header + k = 0..20

    def test_unknown_format(self, small_cfg, tmp_path):
        report = cs.run(small_cfg, "qcqp", max_iter=1)
        with pytest.raises(ValueError):
            cs.emit_trace(report.trace, tmp_path / "t.xml", "xml")


class TestEmitTable:
    def test_csv_table(self, small_cfg, tmp_path):
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp",),
                                 trials=2, max_iter=2, seed=3)
        _, table = cs.run_comparison(spec)
        path = tmp_path / "table.csv"
        cs.emit_table(table, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,mean_final_objective,std_final_objective,trials"
        cells = lines[1].split(",")
        assert cells[0] == "qcqp[root]"
        assert float(cells[1]) == table.rows[0].mean_final_objective

    def test_json_table(self, small_cfg, tmp_path):
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("qcqp",),
                                 trials=1, max_iter=1, seed=3)
        _, table = cs.run_comparison(spec)
        path = tmp_path / "table.json"
        cs.emit_table(table, path, "json")
        doc = json.loads(path.read_text())
        assert doc["rows"][0]["algorithm"] == "qcqp[root]"
        assert doc["rows"][0]["trials"] == 1

    def test_failed_solver_json_table_parses(self, small_cfg, tmp_path, failing_direct):
        # the spec of test_failed_cells_recorded: am-direct fails, its mean is NaN
        spec = cs.ExperimentSpec(scenario=small_cfg, solvers=("am-direct", "qcqp"),
                                 lambda_mode="zero", trials=1, max_iter=2, seed=5)
        _, table = cs.run_comparison(spec)
        path = tmp_path / "table.json"
        cs.emit_table(table, path, "json")
        doc = json.loads(path.read_text())
        failed, ok = doc["rows"]
        assert failed["algorithm"] == "am-direct[zero]" and failed["trials"] == 0
        assert np.isnan(failed["mean_final_objective"])
        assert ok["mean_final_objective"] == table.rows[1].mean_final_objective


def _record(iteration, objective, clutter, residual, power, multiplier=None, step_w=None,
            step_s=None, drift=None, rescaled=None):
    return cs.IterateRecord(
        iteration=iteration, w=np.zeros(1), s=np.zeros(1), full_objective=objective,
        half_objective=objective, clutter_objective=clutter, capon_residual=residual,
        power=power, multiplier=multiplier, step_w=step_w, step_s=step_s, drift=drift,
        rescaled_objective=rescaled)


HEADER = ("iter,objective,clutter_objective,power,capon_residual,multiplier,"
          "step_w,step_s,drift,rescaled_objective\n")
RECORD_0 = ('{"iter": 0, "objective": 0.10000000000000001, '
            '"clutter_objective": 0.33333333333333331, "power": 1, "capon_residual": 0, '
            '"multiplier": null, "step_w": null, "step_s": null, "drift": null, '
            '"rescaled_objective": null}')
RECORD_1 = ('{"iter": 1, "objective": 2.5e-300, "clutter_objective": NaN, '
            '"power": 123456789, "capon_residual": -0, "multiplier": 0.66666666666666663, '
            '"step_w": Infinity, "step_s": -Infinity, "drift": 1e+17, '
            '"rescaled_objective": 3.1415926535897931}')


class TestFileFormat:
    """Byte-exact files from hand-built values, independent of the platform."""

    RECORDS = [
        _record(0, 0.1, 1 / 3, 0.0, 1.0),
        _record(1, 2.5e-300, float("nan"), -0.0, 123456789.0, np.float64(2 / 3),
                float("inf"), float("-inf"), 1e17, np.pi),
    ]

    @pytest.mark.parametrize("seed, seed_token", [(7, "7"), (None, "null")])
    def test_trace(self, tmp_path, seed, seed_token):
        trace = cs.IterateTrace(records=self.RECORDS, solver="sdp", lambda_mode="zero",
                                rescaled=True, seed=seed)
        cs.emit_trace(trace, tmp_path / "t.csv", "csv")
        assert (tmp_path / "t.csv").read_text() == HEADER + (
            "0,0.10000000000000001,0.33333333333333331,1,0,,,,,\n"
            "1,2.5e-300,nan,123456789,-0,0.66666666666666663,inf,-inf,1e+17,"
            "3.1415926535897931\n")
        cs.emit_trace(trace, tmp_path / "t.json", "json")
        assert (tmp_path / "t.json").read_text() == (
            '{\n  "solver": "sdp",\n  "lambda_mode": "zero",\n  "rescaled": true,\n'
            f'  "seed": {seed_token},\n  "records": [\n'
            f"    {RECORD_0},\n    {RECORD_1}\n  ]\n}}\n")
        meta, rows = cs.read_trace(tmp_path / "t.json", "json")
        assert meta["seed"] == seed and np.isnan(rows[1]["clutter_objective"])

    def test_empty_trace(self, tmp_path):
        trace = cs.IterateTrace(records=[], solver="qcqp")
        cs.emit_trace(trace, tmp_path / "t.csv", "csv")
        assert (tmp_path / "t.csv").read_text() == HEADER
        cs.emit_trace(trace, tmp_path / "t.json", "json")
        assert (tmp_path / "t.json").read_text() == (
            '{\n  "solver": "qcqp",\n  "lambda_mode": "root",\n  "rescaled": false,\n'
            '  "seed": null,\n  "records": [\n\n  ]\n}\n')

    def test_table(self, tmp_path):
        table = cs.ComparisonTable(rows=(
            cs.TableRow("qcqp[root]", 1 / 3, 0.0, 1),
            cs.TableRow("cls[root]+rescaled", 2.5e-300, 1e17, 12),
        ))
        cs.emit_table(table, tmp_path / "t.csv", "csv")
        assert (tmp_path / "t.csv").read_text() == (
            "algorithm,mean_final_objective,std_final_objective,trials\n"
            "qcqp[root],0.33333333333333331,0,1\n"
            "cls[root]+rescaled,2.5e-300,1e+17,12\n")
        cs.emit_table(table, tmp_path / "t.json", "json")
        assert (tmp_path / "t.json").read_text() == (
            '{\n  "rows": [\n'
            '    {"algorithm": "qcqp[root]", "mean_final_objective": 0.33333333333333331, '
            '"std_final_objective": 0, "trials": 1},\n'
            '    {"algorithm": "cls[root]+rescaled", "mean_final_objective": 2.5e-300, '
            '"std_final_objective": 1e+17, "trials": 12}\n  ]\n}\n')

    @pytest.mark.parametrize("fmt, text, where", [
        ("csv", "", "line 1"),
        ("csv", HEADER + "0,1.0\n", "line 2"),
        ("csv", HEADER + "0,1,1,1,0,,,,,\nx,1,1,1,0,,,,,\n", "line 3"),
        ("json", "{", "not valid JSON"),
        ("json", '{"records": []}', "'solver'"),
    ], ids=["csv-empty", "csv-short-row", "csv-bad-cell", "json-truncated", "json-no-meta"])
    def test_malformed_trace_raises_parse_error(self, tmp_path, fmt, text, where):
        path = tmp_path / f"t.{fmt}"
        path.write_text(text)
        with pytest.raises(cs.ParseError, match=where):
            cs.read_trace(path, fmt)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        scenario = {
            "dims": {"M": 2, "N": 3, "L": 2},
            "target": {"azimuth": 0.2, "elevation": 0.7, "doppler": -0.15},
            "clutter": {"patches": 4, "elevation": 0.3,
                        "azimuth_span": [-1.2, 1.2]},
            "seed": 7,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        out = tmp_path / "trace.csv"
        code = cs.main(["run", "--scenario", str(spath), "--iters", "3",
                        "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "final_objective" in capsys.readouterr().out

    def test_compare_subcommand_writes_traces_and_table(self, tmp_path):
        scenario = {
            "dims": {"M": 2, "N": 3, "L": 2},
            "target": {"azimuth": 0.2, "elevation": 0.7, "doppler": -0.15},
            "clutter": {"patches": 4, "elevation": 0.3, "azimuth_span": [-1.2, 1.2]},
            "seed": 7,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        outdir = tmp_path / "results"
        code = cs.main(["compare", "--scenario", str(spath), "--iters", "2",
                        "--solver", "qcqp", "--solver", "cls",
                        "--out", str(outdir)])
        assert code == 0
        assert (outdir / "comparison.csv").exists()
        assert (outdir / "trace_qcqp_trial000.csv").exists()
        assert (outdir / "trace_cls_trial000.csv").exists()

    def test_montecarlo_subcommand(self, tmp_path, capsys):
        scenario = {
            "dims": {"M": 2, "N": 3, "L": 2},
            "target": {"azimuth": 0.2, "elevation": 0.7, "doppler": -0.15},
            "clutter": {"patches": 4, "elevation": 0.3, "azimuth_span": [-1.2, 1.2]},
            "seed": 7,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        outdir = tmp_path / "mc"
        code = cs.main(["montecarlo", "--scenario", str(spath), "--iters", "2",
                        "--trials", "3", "--solver", "qcqp", "--rescale",
                        "--out", str(outdir)])
        assert code == 0
        assert (outdir / "comparison.csv").exists()
        assert not list(outdir.glob("trace_*"))
        assert "qcqp[root]+rescaled" in capsys.readouterr().out

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cs.main(["run", "--scenario", str(bad)]) == 2

    @pytest.mark.parametrize("command, change, argv, field", [
        ("run", {"clutter": {"patches": 4, "azimuth_span": ["a", 1]}}, [],
         "clutter.azimuth_span[0]"),
        ("run", {"clutter": {"patches": 4, "azimuth_span": [None, 1]}}, [],
         "clutter.azimuth_span[0]"),
        ("run", {"clutter": {"patches": 4, "azimuth_span": [-1, True]}}, [],
         "clutter.azimuth_span[1]"),
        ("run", {"interferers": 3}, [], "interferers"),
        ("run", {"kappa": 10**400}, [], "kappa"),
        ("run", {"seed": -1}, [], "seed"),
        ("run", {}, ["--seed", "-1"], "seed"),
        ("run", {}, ["--iters", "-1"], "max_iter"),
        ("run", {"noise": {"decay": 1e-20}}, [], "noise.decay"),
        ("run", {}, ["--out", "{tmp}/missing/trace.csv"], "--out"),
        ("compare", {}, ["--out", "{tmp}/scenario.json"], "--out"),
    ], ids=["span-string", "span-null", "span-bool", "interferers-int", "huge-int", "seed-file",
            "seed-flag", "iters", "decay-tiny", "out-missing-dir", "out-is-a-file"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, monkeypatch, command, change,
                                     argv, field):
        if field == "--out":
            # the output location is checked before any run
            def no_run(*args, **kwargs):
                raise AssertionError("ran before checking --out")

            monkeypatch.setattr(cs.harness_cli, "run", no_run)
            monkeypatch.setattr(cs.harness_cli, "run_comparison", no_run)
        argv = [a.format(tmp=tmp_path) for a in argv]
        self._expect_exit_2(tmp_path, capsys, change, argv, field, command)

    @pytest.mark.parametrize("change, field", [
        ({"kappa": float("inf")}, "kappa"),
        ({"power": float("inf")}, "power"),
        ({"noise": {"decay": float("inf")}}, "noise.decay"),
        ({"target": {"azimuth": float("nan"), "elevation": 0.7, "doppler": -0.15}},
         "target.azimuth"),
        ({"clutter": {"patches": 4, "elevation": float("inf")}}, "clutter.elevation"),
        ({"clutter": {"patches": 4, "azimuth_span": [0, float("inf")]}},
         "clutter.azimuth_span[1]"),
        ({"clutter": {"patches": 4, "patch_power": float("nan")}}, "clutter.patch_power"),
        ({"clutter": {"patches": 4, "doppler_slope": float("nan")}}, "clutter.doppler_slope"),
        ({"interferers": [{"azimuth": 0.5, "elevation": 0.7, "phase_rate": 0.02,
                           "power": float("nan")}]}, "interferers[0].power"),
        ({"interferers": [{"azimuth": float("-inf"), "elevation": 0.7,
                           "phase_rate": 0.02}]}, "interferers[0].azimuth"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, change, field):
        self._expect_exit_2(tmp_path, capsys, change, [], field)

    @staticmethod
    def _expect_exit_2(tmp_path, capsys, change, argv, field, command="run"):
        scenario = {
            "dims": {"M": 2, "N": 3, "L": 2},
            "target": {"azimuth": 0.2, "elevation": 0.7, "doppler": -0.15},
            "clutter": {"patches": 4, "elevation": 0.3, "azimuth_span": [-1.2, 1.2]},
            "seed": 7,
            **change,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))  # writes NaN and Infinity as Python reads them
        code = cs.main([command, "--scenario", str(spath), "--iters", "1", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: {field}:" in err

    def test_compare_negative_seed_exits_2(self, capsys):
        assert cs.main(["compare", "--iters", "0", "--seed", "-1"]) == 2
        assert "error: seed:" in capsys.readouterr().err

    def test_numerical_error_exit_code(self, tmp_path, failing_direct):
        scenario = {
            "dims": {"M": 2, "N": 3, "L": 2},
            "target": {"azimuth": 0.2, "elevation": 0.7, "doppler": -0.15},
            "clutter": {"patches": 2, "elevation": 0.3, "azimuth_span": [-1.2, 1.2]},
            "seed": 7,
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        code = cs.main(["run", "--scenario", str(spath), "--iters", "2",
                        "--solver", "am-direct", "--lambda-mode", "zero"])
        assert code == 3

    def test_descent_violations_exit_code(self, monkeypatch, capsys):
        run = cs.harness_cli.run

        def one_violation(*args, **kwargs):
            return dataclasses.replace(run(*args, **kwargs), monotonicity_violations=1)

        monkeypatch.setattr(cs.harness_cli, "run", one_violation)
        code = cs.main(["run", "--iters", "2"])
        captured = capsys.readouterr()
        assert "monotonicity_violations=0" not in captured.out
        assert code == 3
        assert "monotone descent violated" in captured.err

    def test_default_scenario_is_bundled(self, capsys):
        code = cs.main(["run", "--iters", "0"])
        assert code == 0
        assert "final_objective" in capsys.readouterr().out
