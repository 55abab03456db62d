"""CLI parsing, CSV round-trip and self-verification."""

import ast
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import boussinesq.cli as cli
from boussinesq import spectral, stepping, sweeps, verification
from boussinesq.reporting import CSV_HEADER, read_csv, write_csv
from boussinesq.sweeps import (
    SweepResult,
    SweepRow,
    SweepSpec,
    run_spec,
    run_sweep,
    spatial_spec,
    stability_spec,
    temporal_spec,
)
from boussinesq.verification import run_checks

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text("utf-8")


def readme_table_names():
    """The names in the first cell of each row of README's table."""
    return {
        name
        for line in README.splitlines()
        if line.startswith("| `")
        for name in re.findall(r"`([^`]+)`", line.split("|")[1])
    }


def make_row(**overrides):
    base = dict(
        kind="temporal",
        scheme="proposed",
        N=512,
        dt=0.004,
        K=1000,
        T=4.0,
        err_psi_l2=1.1610264668701908e-07,
        err_u_h2=1.2116e-07,
        err_u_l2=1.4336e-07,
        mass_drift=2.01e-11,
        diverged=False,
        wall_seconds=0.18,
    )
    base.update(overrides)
    return SweepRow(**base)


class TestParseArgs:
    @pytest.mark.parametrize(
        "subcommand, builder",
        [
            ("run", run_spec),
            ("sweep-space", spatial_spec),
            ("sweep-time", temporal_spec),
            ("stability", stability_spec),
        ],
        ids=["run", "sweep-space", "sweep-time", "stability"],
    )
    def test_defaults_come_from_the_spec_builders(self, subcommand, builder):
        assert cli._spec_from_args(cli.build_parser().parse_args([subcommand])) == builder()

    def test_sweep_time_defaults(self):
        spec = cli._spec_from_args(cli.build_parser().parse_args(["sweep-time"]))
        assert spec == temporal_spec()
        assert (spec.kind, spec.N_list, spec.T, spec.amplitude) == ("temporal", (512,), 4.0, 0.5)
        assert spec.nk_list == tuple(range(100, 1100, 100))

    def test_sweep_space_defaults(self):
        spec = cli._spec_from_args(cli.build_parser().parse_args(["sweep-space"]))
        assert spec == spatial_spec()
        assert spec.kind == "spatial"
        assert spec.N_list == tuple(range(32, 136, 8))
        assert spec.dt == 1e-4

    def test_zero_dt_is_usage_error(self, capsys):
        assert cli.main(["run", "--dt", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_conflicting_dt_and_nk(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["run", "--dt", "0.01", "--nk", "100"])
        assert exc.value.code == 2

    def test_nk_sets_step_from_final_time(self):
        args = cli.build_parser().parse_args(["run", "--nk", "100", "--T", "2", "--N", "16"])
        spec = cli._spec_from_args(args)
        assert (spec.nk_list, spec.dt) == ((100,), None)
        (row,) = run_sweep(spec).rows
        assert (row.dt, row.K) == (2.0 / 100, 100)

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["run", "--frobnicate"])
        assert exc.value.code == 2

    def test_readme_cli_block_names_only_real_flags(self, tmp_path, monkeypatch):
        # and each command runs, at N = 16 and T = 0.4 but verify, and writes
        # a CSV that reads back
        block = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("boussinesq ")]
        assert lines
        monkeypatch.chdir(tmp_path)
        for line in lines:
            argv = line.split()[1:]
            small = [] if argv == ["verify"] else ["--N", "16", "--T", "0.4"]
            try:
                assert cli.main(argv + small) == 0, line
            except SystemExit:
                pytest.fail(f"README's CLI block runs {line!r}, which the parser refuses")
            if "--out" in argv:
                assert read_csv(tmp_path / argv[argv.index("--out") + 1]), line

    def test_readme_table_names_every_output(self):
        # one row per CSV column and per fitted-order comment, named in its first cell
        named = readme_table_names()
        wanted = {*CSV_HEADER.split(","), "fitted_order", "fitted_order_u_h2"}
        assert wanted <= named, sorted(wanted - named)

    def test_readme_table_names_every_verify_check(self):
        checks = {name for name, _ in run_checks()}
        assert checks <= readme_table_names(), sorted(checks - readme_table_names())

    def test_readme_cites_only_tests_that_exist(self):
        defined = {
            node.name
            for path in TESTS.glob("test_*.py")
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        }
        cited = set(re.findall(r"`(test_\w+)`", README))
        assert cited and cited <= defined, sorted(cited - defined)

    def test_readme_cites_only_criteria_that_exist(self):
        source = (TESTS / "test_acceptance.py").read_text("utf-8")
        criteria = set(re.findall(r"^def test_criterion_([0-9]+[a-z]?)_", source, re.M))
        cited = set(re.findall(r"\bC([0-9]+[a-z]?)\b", README))
        assert cited and cited <= criteria, sorted(cited - criteria)

    def test_run_spec_carries_the_flags(self):
        argv = ["run", "--scheme", "frutos", "--N", "64", "--dt", "0.01"]
        args = cli.build_parser().parse_args(argv)
        spec = cli._spec_from_args(args)
        assert (spec.kind, spec.N_list, spec.dt) == ("run", (64,), 0.01)
        assert spec.schemes == ("frutos",)

    def test_stability_defaults(self):
        spec = cli._spec_from_args(cli.build_parser().parse_args(["stability"]))
        assert (spec.kind, spec.dt, spec.T) == ("stability", 0.1, 100.0)
        assert spec.schemes == ("proposed", "frutos")

    @pytest.mark.parametrize("subcommand", ["sweep-space", "sweep-time", "stability"])
    def test_scheme_flag_only_on_run(self, subcommand):
        # a sweep fixes its schemes, so the flag would change nothing
        with pytest.raises(SystemExit) as exc:
            cli.main([subcommand, "--scheme", "frutos"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("subcommand", ["run", "sweep-space", "sweep-time", "stability"])
    def test_no_stride_flag(self, subcommand):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([subcommand, "--stride", "10"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--N", "16", "--dt", "0.05", "--T", "0.1"],
            ["sweep-space", "--N", "16", "--dt", "0.05", "--T", "0.1"],
            ["sweep-time", "--N", "16", "--T", "0.1"],
            ["stability", "--N", "16", "--T", "0.5"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_each_command_makes_one_spec(self, monkeypatch, capsys, argv):
        # each spec made checks every run and builds every grid again
        made, check = [], sweeps.SweepSpec.__post_init__
        monkeypatch.setattr(
            sweeps.SweepSpec, "__post_init__", lambda spec: made.append(spec) or check(spec)
        )
        assert cli.main(argv) == 0
        assert len(made) == 1

    @pytest.mark.parametrize(
        "flag, domain", [("--xmax=41", (-40.0, 41.0)), ("--xmin=-39", (-39.0, 40.0))]
    )
    def test_one_sided_domain_keeps_the_default_other_bound(self, flag, domain):
        spec = cli._spec_from_args(cli.build_parser().parse_args(["run", flag]))
        assert spec.domain == domain

    def test_bad_domain(self, capsys):
        assert cli.main(["run", "--xmin", "10", "--xmax", "-10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: domain must be finite with xmin < xmax")
        assert err.count("\n") == 1


class TestCsv:
    def test_header_contract(self, tmp_path):
        result = SweepResult(spec=temporal_spec(), rows=())
        path = tmp_path / "empty.csv"
        write_csv(result, path)
        content = path.read_text(encoding="utf-8")
        assert content == CSV_HEADER + "\n"

    def test_zero_run_row(self, tmp_path):
        row = make_row(err_psi_l2=0.0, err_u_h2=0.0, err_u_l2=0.0, mass_drift=0.0)
        path = tmp_path / "zero.csv"
        write_csv(SweepResult(spec=temporal_spec(), rows=(row,)), path)
        back = read_csv(path)[0]
        assert back.err_psi_l2 == 0.0
        assert back.diverged is False

    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        rows = tuple(
            make_row(
                dt=float(rng.uniform(1e-5, 1)),
                err_psi_l2=float(rng.standard_normal() ** 2),
                err_u_h2=float(np.exp(rng.uniform(-30, 3))),
                err_u_l2=float(rng.uniform()),
                mass_drift=float(rng.uniform() * 1e-12),
                wall_seconds=float(rng.uniform()),
                diverged=bool(rng.integers(2)),
            )
            for _ in range(20)
        )
        path = tmp_path / "rt.csv"
        write_csv(SweepResult(spec=temporal_spec(), rows=rows), path)
        for orig, back in zip(rows, read_csv(path)):
            assert back == orig

    def test_any_real_writes_as_a_python_float(self, tmp_path):
        # numpy scalars and ints parse back, and a re-written file is the same bytes
        spec = SweepSpec(kind="run", N_list=(16,), nk_list=tuple(np.arange(2, 4)), T=1)
        result = run_sweep(spec)
        rows = result.rows + (make_row(dt=np.float64(0.05), T=1, wall_seconds=np.float32(0.5)),)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_csv(SweepResult(spec=spec, rows=rows), first)
        back = read_csv(first)
        assert [(row.dt, row.T) for row in back] == [(0.5, 1.0), (1 / 3, 1.0), (0.05, 1.0)]
        assert back[-1].wall_seconds == float(np.float32(0.5))
        write_csv(SweepResult(spec=spec, rows=tuple(back)), second)
        assert second.read_bytes() == first.read_bytes()
        assert "np." not in first.read_text()

    def test_fitted_order_comment(self, tmp_path):
        result = SweepResult(
            spec=temporal_spec(),
            rows=tuple(make_row(K=k) for k in range(100, 1100, 100)),
            fitted_orders={"err_psi_l2": 2.0001559, "err_u_h2": 1.9980544},
        )
        path = tmp_path / "fit.csv"
        write_csv(result, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 13
        assert lines[-2].startswith("# fitted_order=")
        assert float(lines[-2].split("=")[1]) == pytest.approx(2.0001559)

    def test_both_fitted_orders_survive_a_temporal_sweep(self, tmp_path):
        # the H2 order has its own comment line; the psi line keeps its
        # "# fitted_order=" prefix, which the new prefix does not match
        result = run_sweep(temporal_spec(N_list=(64,), nk_list=(50, 100), T=1.0))
        path = tmp_path / "temporal.csv"
        write_csv(result, path)
        comments = [ln for ln in path.read_text().splitlines() if ln.startswith("#")]
        assert comments == [
            f"# fitted_order={result.fitted_orders['err_psi_l2']!r}",
            f"# fitted_order_u_h2={result.fitted_orders['err_u_h2']!r}",
        ]

    def test_golden_bytes(self, tmp_path):
        # one row of each kind, pinned to the exact text of the format
        rows = (
            make_row(kind="spatial", N=32, dt=1e-4, K=40000, err_u_h2=0.1 + 0.2),
            make_row(),
            make_row(kind="stability", N=512, dt=0.1, K=1000, T=100.0, wall_seconds=1e-05),
            make_row(
                kind="stability",
                scheme="frutos",
                N=512,
                dt=0.1,
                K=1000,
                T=100.0,
                err_psi_l2=float("inf"),
                err_u_h2=float("inf"),
                err_u_l2=float("inf"),
                mass_drift=float("inf"),
                diverged=True,
            ),
            make_row(
                kind="run",
                scheme="frutos",
                N=64,
                dt=0.01,
                K=50,
                T=0.5,
                err_psi_l2=float("nan"),
                mass_drift=0.0,
            ),
        )
        result = SweepResult(
            spec=temporal_spec(),
            rows=rows,
            fitted_orders={"err_psi_l2": 2.0001559, "err_u_h2": 1.9980544},
        )
        path = tmp_path / "golden.csv"
        write_csv(result, path)
        assert path.read_bytes().decode("utf-8") == (
            "kind,scheme,N,dt,K,T,err_psi_l2,err_u_h2,err_u_l2,mass_drift,diverged,wall_seconds\n"
            "spatial,proposed,32,0.0001,40000,4.0,1.1610264668701908e-07,"
            "0.30000000000000004,1.4336e-07,2.01e-11,false,0.18\n"
            "temporal,proposed,512,0.004,1000,4.0,1.1610264668701908e-07,"
            "1.2116e-07,1.4336e-07,2.01e-11,false,0.18\n"
            "stability,proposed,512,0.1,1000,100.0,1.1610264668701908e-07,"
            "1.2116e-07,1.4336e-07,2.01e-11,false,1e-05\n"
            "stability,frutos,512,0.1,1000,100.0,inf,inf,inf,inf,true,0.18\n"
            "run,frutos,64,0.01,50,0.5,nan,1.2116e-07,1.4336e-07,0.0,false,0.18\n"
            "# fitted_order=2.0001559\n"
            "# fitted_order_u_h2=1.9980544\n"
        )
        back = read_csv(path)
        assert back[:4] == list(rows[:4])
        assert math.isnan(back[4].err_psi_l2)
        assert back[4] == dataclasses.replace(rows[4], err_psi_l2=back[4].err_psi_l2)
        assert all(type(b.N) is int and type(b.K) is int for b in back)
        assert [b.diverged for b in back] == [False, False, False, True, False]

    @pytest.mark.parametrize(
        "edit", [lambda cells: cells[:-1], lambda cells: cells + ["1"]], ids=["short", "long"]
    )
    def test_row_with_wrong_column_count_rejected(self, tmp_path, edit):
        path = tmp_path / "bad.csv"
        write_csv(SweepResult(spec=temporal_spec(), rows=(make_row(), make_row())), path)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("diverged", "True"),
            ("diverged", "1"),
            ("diverged", ""),
            ("K", "2.0"),
            ("N", "x"),
            ("err_u_h2", "1e-3e"),
        ],
    )
    def test_malformed_cell_names_path_line_and_column(self, tmp_path, column, cell):
        path = tmp_path / "bad.csv"
        write_csv(SweepResult(spec=temporal_spec(), rows=(make_row(), make_row())), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"bad.csv, line 3, column {column}: "):
            read_csv(path)


class TestVerify:
    def test_fresh_build_passes(self):
        results = run_checks()
        assert all(ok for _, ok in results)
        assert len(results) == 7

    def test_sign_fault_in_second_derivative_detected(self, monkeypatch):
        derivative = spectral.derivative

        def broken_derivative(grid, values, order=1):
            out = derivative(grid, values, order)
            return -out if order == 2 else out

        monkeypatch.setattr(spectral, "derivative", broken_derivative)
        results = dict(run_checks())
        assert results["summation by parts"] is False

    def test_injected_derivative_reaches_only_summation_by_parts(self, monkeypatch):
        def constant_derivative(grid, values, order=1):
            return np.ones_like(values)

        monkeypatch.setattr(spectral, "derivative", constant_derivative)
        results = dict(run_checks())
        assert [name for name, ok in results.items() if not ok] == ["summation by parts"]

    def test_round_trip_covers_the_two_stage_path(self, monkeypatch):
        # N = 361 is 723 = 241 * 3 points, which transform in two stages
        assert spectral.Grid(361, 80.0, -40.0)._two_stage is not None
        inverse = spectral._TwoStage.inverse
        monkeypatch.setattr(
            spectral._TwoStage, "inverse", lambda self, y, out: 2.0 * inverse(self, y, out)
        )
        results = dict(run_checks())
        assert [name for name, ok in results.items() if not ok] == ["transform round-trip"]

    def test_zero_fixed_point_steps_without_step_arrays(self, monkeypatch):
        def refuse(self, *arrays):
            raise AssertionError("verify called step_arrays")

        monkeypatch.setattr(stepping.LinearStepper, "step_arrays", refuse)
        results = run_checks()
        assert len(results) == 7 and all(ok for _, ok in results)

    def test_linear_check_sees_the_dispersion(self, monkeypatch):
        # the trapezoidal rule of omega^2 = k^4 + 2 k^2, with its own lam, m'
        # and c, is area-preserving with |mu| = 1 too: only its phase is wrong
        def wrong_dispersion(grid, dt):
            k2 = np.repeat(grid.wavenumbers**2, 2)
            w = k2 * k2 + 2.0 * k2
            lam = 2.0 / dt**2 + w / 2.0
            q, s = (2.0 / dt) * (k2 > 0), np.where(k2 > 0, 1.0, -1.0)
            b = -k2 / lam
            return stepping.LinearStepper(
                grid, dt, -w / lam, 1.5 * b, -0.5 * b, 2.0 / dt / lam, q, s, True
            )

        grid = spectral.Grid(64, 80.0, -40.0)
        for dt in (1e-3, 0.05, 1.0):
            update = wrong_dispersion(grid, dt).matrix
            assert np.max(np.abs(np.linalg.det(update) - 1.0)) <= 1e-12
            assert np.max(np.abs(np.linalg.eigvals(update))) <= 1.0 + 1e-12
        monkeypatch.setattr(verification, "ProposedStepper", wrong_dispersion)
        results = dict(run_checks())
        assert [name for name, ok in results.items() if not ok] == [
            "linear update non-amplifying"
        ]

    def test_cli_verify_exit_codes(self, monkeypatch, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        monkeypatch.setattr(cli, "run_checks", lambda: [("stub", False)])
        assert cli.main(["verify"]) == 1


class TestMainCommands:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main(
            ["run", "--N", "64", "--dt", "0.01", "--T", "0.5", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0].kind == "run"
        assert not rows[0].diverged

    def test_sweep_time_small_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep-time", "--N", "64", "--T", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row.K for row in rows] == list(range(100, 1100, 100))
        assert list(tmp_path.iterdir()) == [out]

    def test_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        code = cli.main(
            [
                "run",
                "--N",
                "32",
                "--dt",
                "0.1",
                "--T",
                "0.5",
                "--out",
                str(tmp_path / "missing_dir" / "x.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_amplitude_out_of_range_is_one_line_usage_error(self, capsys):
        code = cli.main(["run", "--N", "32", "--amplitude", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: amplitude must lie in (0, 3/2]")
        assert err.count("\n") == 1

    def test_run_prints_the_row_it_writes(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = ["run", "--scheme", "frutos", "--N", "32", "--dt", "0.1", "--T", "0.5"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        (row,) = read_csv(out)
        assert (row.kind, row.scheme, row.N, row.K) == ("run", "frutos", 32, 5)
        assert line.startswith("completed: scheme=frutos N=32 dt=0.1 K=5 err_psi_l2=nan ")
        assert f"err_u_h2={row.err_u_h2:.3e}" in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--dt", "0"],
            ["run", "--T", "0"],
            ["run", "--T", "inf"],
            ["run", "--nk", "0"],
            ["run", "--xmin", "10", "--xmax", "-10"],
            ["sweep-space", "--dt", "-1"],
            ["stability", "--T", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, argv):
        out = tmp_path / "rows.csv"
        assert cli.main([*argv, "--N", "16", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--N", "16", "--dt", "0.3", "--T", "1", "--xmin=-5", "--xmax=5"],
            ["run", "--N", "16", "--dt", "inf", "--xmin=-5", "--xmax=5"],
            ["run", "--N", "16", "--dt", "1e-160", "--T", "1e-159", "--xmin=-5", "--xmax=5"],
            ["run", "--N", "16", "--dt", "1e155", "--T", "1e155", "--xmin=-5", "--xmax=5"],
            ["run", "--scheme", "frutos", "--bootstrap", "self-start", "--N", "16", "--T", "0.5",
             "--xmin=-5", "--xmax=5"],
            ["sweep-space", "--xmin=0", "--xmax=3e-75", "--T", "0.0004"],
        ],
        ids=["off-step-grid", "dt-inf", "dt-squared-overflows", "huge-dt-squared-overflows",
             "three-level-self-start", "k4-overflows-at-a-larger-N"],
    )
    def test_bad_spec_is_one_error_line_before_anything_is_built(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # each domain cuts the wave, so a problem built would warn first
        built, problem = [], sweeps._problem
        monkeypatch.setattr(sweeps, "_problem", lambda *args: built.append(args) or problem(*args))
        out = tmp_path / "rows.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()
        assert caught == [] and built == []

    @pytest.mark.filterwarnings("error")
    def test_step_too_small_for_one_over_dt_squared_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep-time", "--N", "16", "--T", "1e-300", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: time step too small")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    def test_empty_out_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # refused before anything runs, not a run that silently writes nothing
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--N", "16", "--T", "0.1", "--dt", "0.05", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --out needs a path\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [[sub, *flag] for flag in (["--p", "2"], ["--emit-plot"])
         for sub in ("run", "sweep-space", "sweep-time", "stability")]
        + [["stability", "--bootstrap", "exact"]],
        ids=" ".join,
    )
    def test_flag_with_one_legal_value_is_a_usage_error(self, tmp_path, capsys, argv):
        # every exact reference solves p = 2, a stability map's three-level
        # rows take the exact start only, and a sweep writes no plot script
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [["run", "--scheme", "frutos", "--N", "16", "--dt", "0.05", "--T", "0.5"]],
        ids=["run"],
    )
    def test_self_started_three_level_row_is_one_error_line(self, tmp_path, capsys, argv):
        # u^{-1} := u^0 would start the three-level scheme at rest
        out = tmp_path / "rows.csv"
        assert cli.main([*argv, "--bootstrap", "self-start", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the three-level scheme needs the exact start")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "domain",
        [("0", "1e-100"), ("0", "1e-300"), ("-1e308", "1e308")],
        ids=["k4-overflows", "k2-overflows", "length-overflows"],
    )
    def test_domain_length_out_of_float_range_is_one_error_line(self, tmp_path, capsys, domain):
        out = tmp_path / "rows.csv"
        argv = ["run", "--N", "16", "--T", "0.1", "--dt", "0.05", "--out", str(out)]
        assert cli.main([*argv, f"--xmin={domain[0]}", f"--xmax={domain[1]}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: length ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_wide_domain_runs_without_overflow_warnings(self, capsys):
        # cosh of the far nodes' theta overflows, and sech^2 = 1/inf = 0 is right
        assert cli.main(["run", "--T", "0.1", "--xmin=-5000", "--xmax=5000"]) == 0
        assert capsys.readouterr().out.startswith("completed: ")

    @pytest.mark.parametrize(
        "N", ["576460752303423488", "100000000000000000000", "1" + "0" * 400],
        ids=["first-refused", "1e20", "1e400"],
    )
    def test_more_points_than_numpy_can_index_is_one_usage_error_line(self, tmp_path, capsys, N):
        out = tmp_path / "rows.csv"
        assert cli.main(["run", "--N", N, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: half_modes must be at most 576460752303423487")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "message, line",
        [("Unable to allocate 44.7 GiB for an array with shape (6000000001,) and data type "
          "float64", None), ("", "out of memory")],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_one_runtime_error_line(
        self, tmp_path, monkeypatch, capsys, message, line
    ):
        # a grid too large for the machine fails where its nodes are made;
        # raised here without allocating anything
        def exhausted(grid):
            raise MemoryError(message)

        monkeypatch.setattr(spectral.Grid, "nodes", property(exhausted))
        out = tmp_path / "rows.csv"
        assert cli.main(["run", "--N", "16", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {line or message}\n")
        assert not out.exists()

    def test_final_time_off_the_step_grid_is_one_line_usage_error(self, capsys):
        code = cli.main(["run", "--N", "32", "--T", "0.1", "--dt", "0.03"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not an integer multiple" in err
