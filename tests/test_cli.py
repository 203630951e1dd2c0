"""Command line layer: config parsing, file formats, exit codes."""

import ast
import dataclasses
import hashlib
import importlib.util
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from ntcircle import (
    GOLDEN_MEAN,
    ContinuationPolicy,
    QpProblem,
    QpState,
    breakdown_extrapolate,
    cli,
    continue_in_eps,
    fourier,
)


WORKLOADS = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
             / "workloads.py")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def md5(path):
    with open(path, "rb") as fh:
        return hashlib.md5(fh.read()).hexdigest()


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        assert cli.parse_config("") == cli.RunConfig()

    def test_comments_blanks_and_golden_keyword(self):
        cfg = cli.parse_config(
            "# header comment\n"
            "\n"
            "omega = golden   # trailing comment\n"
            "sigma = 0.5\n"
        )
        assert cfg.omega == GOLDEN_MEAN
        assert cfg.sigma == 0.5

    def test_unknown_key_points_at_line(self):
        with pytest.raises(ValueError, match=r"line 2: unknown config key"):
            cli.parse_config("sigma = 0.5\nsgima = 0.5\n")

    def test_duplicate_key_points_at_line(self):
        with pytest.raises(ValueError, match=r"line 3: duplicate key"):
            cli.parse_config("sigma = 0.5\n\nsigma = 0.6\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match=r"line 1: expected key=value"):
            cli.parse_config("just words\n")

    def test_uncastable_value_names_key(self):
        with pytest.raises(ValueError, match=r"line 1: bad value for n_max"):
            cli.parse_config("n_max = many\n")

    def test_boolean_spellings(self):
        for text, want in (("on", True), ("TRUE", True), ("1", True),
                           ("off", False), ("no", False), ("0", False)):
            assert cli.parse_config(f"timing = {text}\n").timing is want
        with pytest.raises(ValueError, match="line 1"):
            cli.parse_config("timing = maybe\n")

    def test_defaults_parse_from_their_string_form(self):
        defaults = cli.RunConfig()
        lines = []
        for f in dataclasses.fields(defaults):
            value = getattr(defaults, f.name)
            text = (",".join(map(repr, value)) if isinstance(value, tuple)
                    else str(value))
            lines.append(f"{f.name} = {text}\n")
        assert cli.parse_config("".join(lines)) == defaults

    def test_float_list(self):
        cfg = cli.parse_config("b_a0_list = -0.2, 0, 0.2\n")
        assert cfg.b_a0_list == (-0.2, 0.0, 0.2)
        with pytest.raises(ValueError, match="line 1"):
            cli.parse_config("b_a0_list = ,\n")

    @pytest.mark.parametrize("line", [
        "tol = nan",                # float
        "eps_target = nan",
        "b_a0 = NaN",
        "rho_tol = inf",
        "step_init = inf",
        "b_a0 = -inf",
        "omega = nan",              # omega
        "omega = inf",
        "b_a0_list = 0, nan",       # list
        "b_a0_list = inf",
    ])
    def test_non_finite_value_rejected_at_its_line(self, line):
        key = line.partition("=")[0].strip()
        with pytest.raises(ValueError,
                           match=rf"line 2: bad value for {key}: "
                                 r"expected a finite number"):
            cli.parse_config("sigma = 0.8\n" + line + "\n")


def cfg_reads(source):
    """Attribute names read as cfg.<name> in source."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "cfg"
    }


class TestConfigKeys:
    def test_scanner_reads_cfg_attributes(self):
        assert cfg_reads("cfg.a + other.b\ngetattr(cfg, 'c')\n") == {"a"}

    def test_every_key_is_read(self):
        # a key is read as cfg.<name>, or passed by name to the field of
        # QpProblem or ContinuationPolicy it names
        with open(cli.__file__, encoding="utf-8") as fh:
            read = cfg_reads(fh.read())
        passed = {f.name for target in (QpProblem, ContinuationPolicy)
                  for f in dataclasses.fields(target)}
        keys = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert keys - read - passed == set()

    def test_shared_keys_reach_their_fields(self):
        # every shared key, set away from its default, arrives in its
        # field; the values differ from one another, so a swap shows
        values = {
            "omega": "0.3", "b_a0": "0.15", "tol": "1e-9",
            "tol_phase": "2e-9", "tol_twist": "3e-9", "n_max": "4096",
            "step_init": "0.02", "alpha_floor": "1e-3", "timing": "on",
        }
        cfg = cli.parse_config("".join(f"{k} = {v}\n"
                                       for k, v in values.items()))
        defaults = cli.RunConfig()
        built = {QpProblem: cli.build_problem(cfg),
                 ContinuationPolicy: cli.build_policy(cfg)}
        shared = set()
        for target, obj in built.items():
            for f in dataclasses.fields(target):
                if not hasattr(cfg, f.name):
                    continue
                shared.add(f.name)
                assert getattr(cfg, f.name) != getattr(defaults, f.name)
                assert getattr(obj, f.name) == getattr(cfg, f.name), f.name
        assert shared == set(values)

    @pytest.mark.parametrize("target", [QpProblem, ContinuationPolicy],
                             ids=lambda t: t.__name__)
    def test_defaults_match_the_library(self, target):
        defaults = cli.RunConfig()
        shared = [f for f in dataclasses.fields(target)
                  if hasattr(defaults, f.name)
                  and f.default is not dataclasses.MISSING]
        assert shared
        for f in shared:
            assert getattr(defaults, f.name) == f.default, f.name


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


class TestRetiredKeys:
    """threads, sweep_grid, sweep_order and sweep_tol no longer act, but
    the benchmark's configs still write them."""

    def test_retired_keys_are_dropped(self):
        assert (cli.parse_config("threads = 1\nsweep_grid = 2048\n")
                == cli.RunConfig())

    def test_any_well_typed_value_is_accepted(self):
        text = ("threads = 2\nsweep_grid = 3000\nsweep_order = 3\n"
                "sweep_tol = -1\n")
        assert cli.parse_config(text) == cli.RunConfig()

    @pytest.mark.parametrize("line", [
        "threads = many", "sweep_grid = 2.5", "sweep_order = four",
        "sweep_tol = nan",
    ])
    def test_malformed_value_rejected(self, line):
        key = line.partition("=")[0].strip()
        with pytest.raises(ValueError,
                           match=rf"line 1: bad value for {key}"):
            cli.parse_config(line + "\n")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_configs_parse(self, seed, monkeypatch):
        # perfbench/workloads.py writes retired keys into its configs: a
        # key deleted while they are still written fails here
        workloads = load_workloads(monkeypatch)
        commands = [cmd for make in workloads.WORKLOADS.values()
                    for cmd in make(seed)]
        assert commands
        for cmd in commands:
            assert isinstance(cli.parse_config(cmd.config), cli.RunConfig)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "text, match",
        [
            ("variant = twisted", "unknown forcing variant"),
            ("sigma = 1.5", "sigma in"),
            ("omega = 0", "omega in"),
            ("eps_target = -1", "nonnegative"),
            ("tol = 0", "must be positive"),
            ("step_init = 0.5", "need step_init in"),
            ("step_init = 1e-7", "need step_init in"),
            ("n_max = 32", "n_max must be at least the start grid 64, got 32"),
            ("sweep_which = b", "sweep_which"),
            ("fit_window = 3", "fit_window must be at least 5, got 3"),
            ("tail_halve = 1e-16", "unknown config key"),
            ("grow_after = 3", "unknown config key"),
            ("tail_double = 1e-9", "unknown config key"),
            # settings no run varied, now library constants: even the
            # value each had by default is refused
            ("family = dsntm", "unknown config key"),
            ("seed = 0", "unknown config key"),
            ("n_min = 64", "unknown config key"),
            ("max_newton = 20", "unknown config key"),
            ("step_min = 1e-6", "unknown config key"),
            ("step_max = 0.1", "unknown config key"),
            ("lock_tol = 1e-8", "unknown config key"),
            ("q_max = 64", "unknown config key"),
            ("refine_width = 1e-4", "unknown config key"),
        ],
    )
    def test_bad_configs_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            cli.parse_config(text + "\n")


class TestCsvCells:
    def test_float_cells_round_trip_exactly(self, tmp_path):
        rows = [(1.0 / 3.0, GOLDEN_MEAN), (0.1, -2.5e17), (1e-300, 4.0)]
        path = str(tmp_path / "table.csv")
        cli.write_csv(path, ("eps", "alpha"), rows)
        back = cli.read_alpha_csv(path)
        assert [(p.eps, p.alpha) for p in back] == rows

    def test_cell_formats(self):
        assert cli._fmt(True) == "1"
        assert cli._fmt(False) == "0"
        assert cli._fmt(7) == "7"
        assert cli._fmt(np.int64(-3)) == "-3"
        assert float(cli._fmt(np.float64(0.1))) == 0.1

    def test_row_template_writes_the_cell_formats(self, tmp_path):
        # the one-template row is byte for byte the cells formatted one
        # by one: floats as format(v, ".17g"), ints and bools as integers
        def cell(v):
            if isinstance(v, (bool, np.bool_)):
                return "1" if v else "0"
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return format(float(v), ".17g")

        rows = [(1.0 / 3.0, np.float64(-0.0), 7, np.int64(-3)),
                (math.nan, -math.inf, True, np.False_),
                (np.float64(math.inf), 5e-324, 10 ** 16, np.True_),
                (np.float32(0.1), -2.5e17, np.int32(65536), 0.0)]
        path = str(tmp_path / "table.csv")
        cli.write_csv(path, ("a", "b", "c", "d"), iter(rows))
        with open(path, "rb") as fh:
            got = fh.read()
        want = "a,b,c,d\n" + "".join(
            ",".join(cell(v) for v in row) + "\n" for row in rows)
        assert got == want.encode("ascii")


BASE_CFG = """
variant = symmetric
sigma = 0.8
omega = golden
"""


class TestContinueCommand:
    def test_reaches_target_and_writes_tables(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "eps_target = 0.25\n")
        out = str(tmp_path / "out")
        rc = cli.main(["continue-nontwist", "--config", cfg, "--out", out])
        assert rc == 0
        assert "stopped: target" in capsys.readouterr().out

        with open(os.path.join(out, "path.csv")) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",")
        assert tuple(header) == cli.PATH_HEADER
        eps = data[:, 0]
        assert eps[0] == 0.0 and eps[-1] == 0.25
        assert np.all(np.diff(eps) > 0)
        assert np.all(data[:, 4] <= 1e-10)       # invariance errors
        assert np.all(data[:, 9] == 0.0)         # timing off: wall_ms zeroed

        circle = np.loadtxt(os.path.join(out, "final_circle.csv"),
                            delimiter=",", skiprows=1)
        assert circle.shape == (int(data[-1, 3]), 5)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + "eps_target = 0.15\n")
        sums = []
        for tag in ("one", "two"):
            out = str(tmp_path / tag)
            assert cli.main(["continue-nontwist", "--config", cfg,
                             "--out", out]) == 0
            sums.append((md5(os.path.join(out, "path.csv")),
                         md5(os.path.join(out, "final_circle.csv"))))
        assert sums[0] == sums[1]

    def test_timing_fills_the_wall_ms_column_alone(self, tmp_path):
        # timing = on writes the elapsed time of each record; every other
        # cell of path.csv, and final_circle.csv, stay byte for byte
        tables = []
        for timing in ("off", "on"):
            cfg = write_cfg(tmp_path, BASE_CFG + "eps_target = 0.15\n"
                            f"timing = {timing}\n", name=f"{timing}.cfg")
            out = str(tmp_path / timing)
            assert cli.main(["continue-nontwist", "--config", cfg,
                             "--out", out]) == 0
            with open(os.path.join(out, "path.csv")) as fh:
                tables.append([line.rstrip("\n").split(",") for line in fh])
            tables.append(md5(os.path.join(out, "final_circle.csv")))
        off, circle_off, on, circle_on = tables
        assert circle_on == circle_off
        wall = cli.PATH_HEADER.index("wall_ms")
        assert on[0] == off[0] and len(on) == len(off) > 2
        for row_on, row_off in zip(on[1:], off[1:]):
            assert row_off[wall] == "0" and float(row_on[wall]) > 0.0
            del row_on[wall], row_off[wall]
            assert row_on == row_off

    def test_alpha_floor_stop_returns_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG
                        + "eps_target = 5.0\nalpha_floor = 1.5\n")
        rc = cli.main(["continue-nontwist", "--config", cfg,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "stopped: alpha-floor" in capsys.readouterr().out

    def test_grid_cap_stop_returns_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG
                        + "eps_target = 3.0\nn_max = 64\n")
        rc = cli.main(["continue-nontwist", "--config", cfg,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "stopped: n-max" in capsys.readouterr().out

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "from_cfg"
        env_dir = tmp_path / "from_env"
        flag_dir = tmp_path / "from_flag"
        cfg = write_cfg(tmp_path, BASE_CFG
                        + f"eps_target = 0.0\nout_dir = {cfg_dir}\n")

        monkeypatch.setenv(cli.ENV_OUT_DIR, str(env_dir))
        assert cli.main(["continue-nontwist", "--config", cfg,
                         "--out", str(flag_dir)]) == 0
        assert (flag_dir / "path.csv").exists()
        assert not env_dir.exists()

        assert cli.main(["continue-nontwist", "--config", cfg]) == 0
        assert (env_dir / "path.csv").exists()
        assert not cfg_dir.exists()

        monkeypatch.delenv(cli.ENV_OUT_DIR)
        assert cli.main(["continue-nontwist", "--config", cfg]) == 0
        assert (cfg_dir / "path.csv").exists()

    def test_missing_config_reports_error(self, tmp_path, capsys):
        rc = cli.main(["continue-nontwist",
                       "--config", str(tmp_path / "nope.cfg")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_config_error_reports_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "sigma = 2.0\n")
        assert cli.main(["continue-nontwist", "--config", cfg]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "")
        with pytest.raises(SystemExit):
            cli.main(["jiggle", "--config", cfg])

    def test_threads_flag_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--config", cfg, "--threads", "1"])
        assert exc.value.code == 2


class TestBreakdownCommand:
    def fit_value(self, out, name):
        with open(os.path.join(out, "fit.txt")) as fh:
            for line in fh:
                key, _, val = line.partition("=")
                if key.strip() == name:
                    return float(val)
        raise AssertionError(f"{name} missing from fit.txt")

    def test_input_table_mode_fits_linear_crossing(self, tmp_path, capsys):
        table = str(tmp_path / "alpha_in.csv")
        eps = 3.0 + 0.01 * np.arange(31)
        cli.write_csv(table, ("eps", "alpha"),
                      zip(eps, 0.5 * (3.8 - eps)))
        cfg = write_cfg(tmp_path, BASE_CFG + f"alpha_input = {table}\n")
        out = str(tmp_path / "out")
        rc = cli.main(["breakdown", "--config", cfg, "--out", out])
        assert rc == 0
        assert "stopped: input" in capsys.readouterr().out
        assert self.fit_value(out, "eps_c") == pytest.approx(3.8, abs=1e-9)
        assert self.fit_value(out, "slope") == pytest.approx(-0.5, abs=1e-9)
        # the table is echoed back with exact float cells
        back = cli.read_alpha_csv(os.path.join(out, "alpha.csv"))
        assert [(p.eps, p.alpha) for p in back] == \
            [(p.eps, p.alpha) for p in cli.read_alpha_csv(table)]

    def test_continuation_mode_fits_its_own_records(self, tmp_path, capsys):
        # without alpha_input the command marches the configured branch
        # and fits the angles of the records the continuation returns
        cfg = write_cfg(tmp_path, "variant = nonsymmetric\n"
                        "sigma = 0.8\nomega = golden\n"
                        "eps_target = 0.3\nstep_init = 0.05\n")
        out = str(tmp_path / "out")
        assert cli.main(["breakdown", "--config", cfg, "--out", out]) == 0
        assert "stopped: target" in capsys.readouterr().out

        conf = cli.load_config(cfg)
        problem = cli.build_problem(conf)
        records = continue_in_eps(
            problem, QpState.flat_start(cli._N_START, problem.omega,
                                        problem.b_a0),
            conf.eps_target, cli.build_policy(conf)).records
        assert len(records) == 5
        back = cli.read_alpha_csv(os.path.join(out, "alpha.csv"))
        assert [(p.eps, p.alpha) for p in back] == \
            [(r.eps, r.alpha) for r in records]
        fit = breakdown_extrapolate(records, 20)
        for name in ("eps_c", "slope", "residual"):
            assert self.fit_value(out, name) == getattr(fit, name)

    def test_run_stops_once_two_fits_agree(self, tmp_path, capsys):
        # the nonsymmetric breakdown at the benchmark's settings ends on
        # the first record within 10 alpha_floor whose fit and the fit
        # without it are both reliable and agree within 1e-3 eps_c, and
        # exits 0; prefixes too short to fit are passed over
        cfg = write_cfg(tmp_path, "variant = nonsymmetric\n"
                        "tol = 1e-10\ntol_phase = 1e-12\ntol_twist = 1e-10\n"
                        "step_init = 0.05\nalpha_floor = 1e-3\n"
                        "eps_target = 10\n")
        out = str(tmp_path / "out")
        assert cli.main(["breakdown", "--config", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "stopped: converged" in printed
        assert "low confidence" not in printed
        eps_c = self.fit_value(out, "eps_c")
        assert abs(eps_c - 1.240522) <= 0.005 * 1.240522
        with open(os.path.join(out, "fit.txt")) as fh:
            assert len(fh.readlines()) == 3
        back = cli.read_alpha_csv(os.path.join(out, "alpha.csv"))
        stop = cli._fits_agree(20, 1e-3)
        assert stop(back)
        assert not any(stop(back[:n]) for n in range(len(back)))
        prev, last = (breakdown_extrapolate(back[:n], 20)
                      for n in (len(back) - 1, len(back)))
        assert last.eps_c == eps_c and prev.reliable and last.reliable
        assert abs(last.eps_c - prev.eps_c) <= 1e-3 * eps_c

    def test_confident_eps_c_off_the_non_twist_level(self, tmp_path, capsys):
        # the benchmark's breakdown config at twist level b_a0 = 0.05 with
        # step_init 0.07: two fits agree on a straight stretch of alpha at
        # 23 alpha_floor, eps_c = 1.145295, where the stop would vouch for
        # a value 3% off; step_init 0.03 and 0.05 reach alpha-floor near
        # 1.1828 (flagged).  An eps_c printed with confidence must be
        # within 0.5% of that
        cfg = write_cfg(tmp_path, "variant = nonsymmetric\nb_a0 = 0.05\n"
                        "tol = 1e-10\ntol_phase = 1e-12\ntol_twist = 1e-10\n"
                        "n_max = 524288\nstep_init = 0.07\nalpha_floor = 1e-3\n"
                        "eps_target = 10\nfit_window = 20\n")
        out = str(tmp_path / "out")
        assert cli.main(["breakdown", "--config", cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        eps_c = self.fit_value(out, "eps_c")
        assert ("low confidence" in printed
                or abs(eps_c - 1.1828) <= 0.005 * 1.1828), printed

    def test_non_shrinking_angle_flagged_low_confidence(self, tmp_path,
                                                        capsys):
        table = str(tmp_path / "alpha_in.csv")
        eps = 0.1 * np.arange(10)
        cli.write_csv(table, ("eps", "alpha"), zip(eps, np.full(10, 0.5)))
        cfg = write_cfg(tmp_path, BASE_CFG + f"alpha_input = {table}\n")
        rc = cli.main(["breakdown", "--config", cfg,
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "low confidence" in capsys.readouterr().out


    @pytest.mark.parametrize("text, where", [
        ("", "line 1: empty table"),
        ("eps,alpha\n1.0,0.5\n1.1\n", "line 3: expected eps,alpha"),
        ("eps,alpha\n1.0,0.5\n\n1.2,half\n", "line 4: could not convert"),
        ("eps,alpha\n1.0,0.5\n1.1,nan\n", "line 3: expected a finite"),
    ], ids=["empty", "short-row", "non-numeric", "non-finite"])
    def test_bad_input_table_is_an_error(self, tmp_path, capsys, text, where):
        table = tmp_path / "alpha_in.csv"
        table.write_text(text, encoding="ascii")
        cfg = write_cfg(tmp_path, BASE_CFG + f"alpha_input = {table}\n")
        rc = cli.main(["breakdown", "--config", cfg,
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}")
        assert where in err


class TestSweepCommand:
    def test_integrable_sweep_is_a_parabola(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + (
            "eps_target = 0.0\n"
            "sweep_which = a\n"
            "sweep_halfwidth = 0.02\n"
            "sweep_step = 0.01\n"
            "sweep_grid = 256\n"
        ))
        out = str(tmp_path / "out")
        rc = cli.main(["rotnum-sweep", "--config", cfg, "--out", out])
        assert rc == 0
        data = np.loadtxt(os.path.join(out, "rho_vs_param.csv"),
                          delimiter=",", skiprows=1)
        a, rho, err, locked = data.T
        assert len(a) == 5
        # flat family: rotation number is omega + a^2, nothing locks
        assert np.max(np.abs(rho - (GOLDEN_MEAN + a ** 2))) <= 1e-9
        assert np.all(locked == 0.0)
        assert np.all(err <= 1e-9)

    def test_early_stop_skips_sweep(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG
                        + "eps_target = 5.0\nalpha_floor = 1.5\n")
        out = str(tmp_path / "out")
        rc = cli.main(["rotnum-sweep", "--config", cfg, "--out", out])
        assert rc == 2
        assert "no sweep" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(out, "rho_vs_param.csv"))


class TestTwistSurfaceCommand:
    def test_integrable_surface_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG + (
            "eps_target = 0.0\n"
            "b_a0_list = -0.2, 0.0, 0.2\n"
        ))
        out = str(tmp_path / "out")
        rc = cli.main(["twist-surface", "--config", cfg, "--out", out])
        assert rc == 0
        data = np.loadtxt(os.path.join(out, "surface.csv"),
                          delimiter=",", skiprows=1)
        b, eps, a, mu = data.T
        assert list(b) == [-0.2, 0.0, 0.2]
        assert np.all(eps == 0.0)
        assert np.max(np.abs(a - b / 2.0)) <= 1e-10
        assert np.max(np.abs(mu - (GOLDEN_MEAN - a ** 2))) <= 1e-10


class TestVerifyCommand:
    def test_battery_passes_clean(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE_CFG + "eps_target = 0.5\n")
        rc = cli.main(["verify", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK (0 failing checks)" in out
        assert "FAIL " not in out
        assert "PASS  circle symmetry K = S K(.+1/2)" in out
        assert "mirror circle" not in out

    def test_battery_runs_the_block_kernels(self, tmp_path, capsys,
                                            monkeypatch):
        # the checks run the kernels the solvers run, not the m = 1
        # wrappers of fourier
        def unused(*args):
            raise AssertionError("an m = 1 wrapper was called")

        for name in ("shift", "dealias", "solve_contractive",
                     "solve_small_divisor"):
            monkeypatch.setattr(fourier, name, unused)
        cfg = write_cfg(tmp_path, BASE_CFG + "eps_target = 0.5\n")
        rc = cli.main(["verify", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "OK (0 failing checks)" in out
        assert "PASS  cohomological (contractive) residual" in out
        assert "PASS  cohomological (small-divisor) residual" in out

    @pytest.mark.parametrize("b_a0", ["0.1", "-0.15"])
    def test_twisted_symmetric_circle_checked_against_its_mirror(
            self, tmp_path, capsys, b_a0):
        # S maps the circle at b_a0 onto the one at -b_a0, not onto itself
        cfg = write_cfg(tmp_path, BASE_CFG + f"b_a0 = {b_a0}\n"
                        "eps_target = 0.5\n")
        rc = cli.main(["verify", "--config", cfg])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "FAIL " not in out
        assert "PASS  mirror circle K_{-b} = S K_b(.+1/2)" in out
        assert "circle symmetry" not in out


class FakeLibc:
    def __init__(self):
        self.calls = []
        # a plain function, so the caller can declare its C signature
        self.mallopt = lambda param, value: self.calls.append((param, value))


class TestAllocatorSettings:
    def test_sets_both_glibc_thresholds(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        cli._keep_freed_memory()
        # (M_MMAP_THRESHOLD, 32 MiB), then (M_TRIM_THRESHOLD, 1 GiB)
        assert libc.calls == [(-3, 33554432), (-1, 1073741824)]
        assert libc.mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)

    def test_no_libc_is_a_silent_no_op(self, monkeypatch, capsys):
        def missing(name):
            raise OSError(f"{name}: cannot open shared object file")
        monkeypatch.setattr(cli.ctypes, "CDLL", missing)
        assert cli._keep_freed_memory() is None
        assert capsys.readouterr() == ("", "")

    def test_libc_without_mallopt_is_a_silent_no_op(self, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert cli._keep_freed_memory() is None
        assert capsys.readouterr() == ("", "")

    def test_main_sets_them_before_the_command(self, tmp_path, monkeypatch):
        order = []
        monkeypatch.setattr(cli, "_keep_freed_memory",
                            lambda: order.append("allocator"))
        monkeypatch.setitem(cli._COMMANDS, "verify",
                            lambda cfg, out: order.append("command") or 0)
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert cli.main(["verify", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        assert order == ["allocator", "command"]

    def test_second_call_is_harmless(self, tmp_path):
        cli._keep_freed_memory()
        cli._keep_freed_memory()
        cfg = write_cfg(tmp_path, BASE_CFG + "eps_target = 0.15\n")
        out = str(tmp_path / "out")
        assert cli.main(["continue-nontwist", "--config", cfg,
                         "--out", out]) == 0

    def test_importing_the_package_leaves_the_allocator_alone(self):
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(cli.__file__)))
        code = ("import ctypes\n"
                "opened = []\n"
                "ctypes.CDLL = lambda *a, **k: opened.append(a)\n"
                "import ntcircle, ntcircle.cli\n"
                "assert opened == [], opened\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr


def pyproject_text(pkg_root):
    path = os.path.join(pkg_root, os.pardir, "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def script_target(text, name):
    """The [project.scripts] target of `name` in pyproject.toml's text.

    A scan of the table's `key = "value"` lines, all that table holds, so
    it runs on Python 3.10 too, which has no tomllib.
    """
    table = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line.strip("[]").strip()
        elif table == "project.scripts" and "=" in line:
            key, _, value = line.partition("=")
            if key.strip().strip('"') == name:
                return ast.literal_eval(value.strip())
    raise KeyError(f"no [project.scripts] entry {name!r}")


def console_script(name):
    """argv prefix and environment that run the console script `name`.

    The installed script when it is on PATH.  Otherwise the script's
    [project.scripts] target in pyproject.toml, called by this
    interpreter with the imported ntcircle package on its path, so an
    uninstalled checkout still runs the entry point a user would get.
    """
    exe = shutil.which(name)
    if exe is not None:
        return [exe], None
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    module, func = script_target(pyproject_text(pkg_root), name).split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    code = f"from {module} import {func}; {func}()"
    return [sys.executable, "-c", code], env


class TestConsoleScript:
    def test_script_target_reads_like_tomllib(self):
        tomllib = pytest.importorskip("tomllib")     # Python 3.11+
        pkg_root = os.path.dirname(os.path.dirname(
            os.path.abspath(cli.__file__)))
        text = pyproject_text(pkg_root)
        scripts = tomllib.loads(text)["project"]["scripts"]
        assert scripts
        for name, target in scripts.items():
            assert script_target(text, name) == target
        with pytest.raises(KeyError):
            script_target(text, "no-such-script")

    def test_installed_entry_point(self, tmp_path):
        table = str(tmp_path / "alpha_in.csv")
        eps = 1.0 + 0.05 * np.arange(8)
        cli.write_csv(table, ("eps", "alpha"), zip(eps, 1.5 - eps))
        cfg = write_cfg(tmp_path, f"alpha_input = {table}\n")
        out = str(tmp_path / "out")
        argv, env = console_script("ntcircle")
        proc = subprocess.run(
            argv + ["breakdown", "--config", cfg, "--out", out],
            capture_output=True, text=True, check=False, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "fit.txt"))

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ntcircle.cli", "--help"],
            capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0
        assert "continue-nontwist" in proc.stdout
