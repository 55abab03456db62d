"""Sweep harness: order fitting, determinism and reduced-size sweeps.

The full published-scale sweeps live in test_acceptance.py; the runs here
are trimmed to keep the unit suite fast.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from boussinesq import sweeps
from boussinesq.spectral import DENSE_MAX_POINTS, Grid
from boussinesq.stepping import run, run_batch
from boussinesq.sweeps import (
    AMPLITUDE,
    STEP_COUNTS,
    SweepSpec,
    fit_order,
    run_spec,
    run_sweep,
    spatial_spec,
    stability_spec,
    temporal_spec,
)
from boussinesq.waves import GBProblem

# a Python int that float() cannot convert
HUGE = 10**400


class TestFitOrder:
    def test_quadratic_synthetic(self):
        dts = [0.1, 0.05, 0.025, 0.0125]
        errs = [3.7 * dt**2 for dt in dts]
        assert fit_order(dts, errs) == pytest.approx(2.0, abs=1e-12)

    def test_linear_synthetic(self):
        dts = [0.1, 0.05, 0.025]
        errs = [0.2 * dt for dt in dts]
        assert fit_order(dts, errs) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_step_sizes_collapse(self):
        dts = [0.1, 0.1, 0.05]
        errs = [1e-2, 1e-2, 2.5e-3]
        assert fit_order(dts, errs) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_order([0.1, 0.1], [1e-2, 1e-2])
        with pytest.raises(ValueError):
            fit_order([0.1, 0.05], [float("inf"), 1e-3])

    @pytest.mark.parametrize("dt", [-0.1, 0.0, float("inf"), float("nan")])
    def test_bad_step_size_is_one_value_error(self, dt, capfd):
        # numpy's log warned and LAPACK printed to stderr before the fit failed
        with pytest.raises(ValueError, match="positive, finite step sizes"):
            fit_order([dt, 0.1, 0.2], [1.0, 2.0, 3.0])
        assert capfd.readouterr().err == ""

    def test_lists_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="order fit got 3 step sizes and 2 errors"):
            fit_order([0.1, 0.2, 0.3], [1.0, 2.0])


class TestSpecValidation:
    def test_defaults_match_published_setup(self):
        spec = spatial_spec()
        assert spec.N_list == tuple(range(32, 136, 8))
        assert spec.dt == 1e-4
        spec = temporal_spec()
        assert spec.N_list == (512,)
        assert STEP_COUNTS == tuple(range(100, 1100, 100))
        assert spec.dt is None
        assert spec.runs == [("proposed", 4.0 / nk) for nk in range(100, 1100, 100)]
        assert spec.T == 4.0
        assert AMPLITUDE == 0.5
        assert spec.domain == (-40.0, 40.0)

    def test_rejects_bad_lists(self):
        with pytest.raises(ValueError):
            SweepSpec(kind="spatial", N_list=(), dt=1e-4)
        with pytest.raises(ValueError):
            SweepSpec(kind="spatial", N_list=(64, 32), dt=1e-4)
        with pytest.raises(ValueError):
            SweepSpec(kind="spatial", N_list=(32,), dt=-1.0)

    def test_rejects_a_grid_size_that_is_not_an_integer(self):
        # refused when made, so that run_sweep never indexes a spectrum by a float
        with pytest.raises(ValueError, match="half_modes must be an integer >= 1, got 16.5"):
            SweepSpec(kind="run", N_list=(16.5,), dt=0.05, T=0.1)
        # checked before the sort compares them
        with pytest.raises(ValueError, match="half_modes must be an integer >= 1, got '32'"):
            SweepSpec(kind="run", N_list=(16, "32"), dt=0.05, T=0.1)

    @pytest.mark.parametrize(
        "field",
        [
            dict(dt="0.05"),
            dict(dt=True),
            dict(T="0.1"),
            dict(T=True),
            dict(domain=("-40", 40.0)),
            dict(domain=(-40.0, True)),
        ],
        ids=repr,
    )
    def test_rejects_a_real_field_that_is_not_a_real_number(self, field):
        # a ValueError naming the value, not a TypeError at the first comparison;
        # a bool is not a number
        with pytest.raises(ValueError, match="must be a real number"):
            SweepSpec(**{**dict(kind="run", N_list=(16,), dt=0.05, T=0.1), **field})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SweepSpec(kind="run", N_list=(16,), dt=0.05, T=0.1, domain=(-HUGE, 0)),
            lambda: SweepSpec(kind="run", N_list=(16,), dt=HUGE, T=0.1),
            lambda: SweepSpec(kind="run", N_list=(16,), dt=0.05, T=HUGE),
            lambda: Grid(16, HUGE),
            lambda: Grid(16, 80.0, -HUGE),
            lambda: run(GBProblem(Grid(16, 80.0), np.zeros(33), np.zeros(33)), 0.05, HUGE),
        ],
        ids=["spec-domain", "spec-dt", "spec-T", "grid-length", "grid-x_left", "run-T"],
    )
    def test_an_int_too_large_for_a_float_is_one_short_error(self, build):
        # a ValueError giving the int's size, not an OverflowError from float()
        # and not its 401 digits
        with pytest.raises(ValueError, match="an int of 1329 bits, too large for a float") as info:
            build()
        assert len(str(info.value)) < 80

    @pytest.mark.parametrize("domain", [(-40.0, 40.0, 99.0), (-40.0,), ()], ids=repr)
    def test_rejects_a_domain_that_is_not_two_bounds(self, monkeypatch, domain):
        # refused before any grid is built, not run on its first two entries
        monkeypatch.setattr(SweepSpec, "_grid", lambda *args: pytest.fail("a grid was built"))
        with pytest.raises(ValueError, match="domain must be two bounds"):
            SweepSpec(kind="run", N_list=(16,), dt=0.05, T=0.1, domain=domain)

    def test_temporal_spec_needs_exactly_one_N_and_scheme(self):
        # the fitted orders pool every row, so a temporal sweep may not mix
        # resolutions or schemes
        with pytest.raises(ValueError):
            temporal_spec(N_list=(32, 64))
        with pytest.raises(ValueError):
            temporal_spec(schemes=("proposed", "frutos"))
        # the three-level scheme has no psi, so its psi errors leave no order to fit
        with pytest.raises(ValueError, match="the proposed scheme"):
            temporal_spec(schemes=("frutos",), N_list=(32,), T=0.4)
        assert temporal_spec(N_list=(64,)).N_list == (64,)

    def test_rejects_empty_schemes(self):
        with pytest.raises(ValueError, match="schemes"):
            stability_spec(schemes=())

    def test_rejects_unknown_scheme(self):
        # before any grid is built, not inside the first batch
        with pytest.raises(ValueError, match="schemes"):
            stability_spec(schemes=("proposed", "bogus"))

    def test_rejects_repeated_scheme(self):
        # rows are keyed by (scheme, N, dt), so a repeat would duplicate rows
        with pytest.raises(ValueError, match="schemes"):
            stability_spec(schemes=("proposed", "proposed"))

    def test_run_kind_needs_a_fixed_dt(self):
        assert SweepSpec(kind="run", N_list=(32,), dt=0.1).kind == "run"
        with pytest.raises(ValueError, match="every other kind needs one"):
            SweepSpec(kind="run", N_list=(32,))
        # a temporal sweep steps T / N_K for each N_K of STEP_COUNTS
        with pytest.raises(ValueError, match="a temporal sweep takes no dt"):
            temporal_spec(N_list=(32,), dt=0.1)

    def test_rejects_a_positive_final_time_that_no_whole_step_reaches(self):
        with pytest.raises(ValueError, match="not an integer multiple of dt"):
            SweepSpec(kind="spatial", N_list=(16,), dt=1.0, T=1e-12)

    def test_rejects_a_step_count_that_overflows(self):
        with pytest.raises(ValueError, match="not a finite number of steps"):
            SweepSpec(kind="run", N_list=(16,), dt=1e-100, T=1e300)

    def test_rejects_unknown_bootstrap_mode(self):
        problem = GBProblem(Grid(16, 80.0), np.zeros(33), np.zeros(33))
        with pytest.raises(ValueError, match="unknown bootstrap mode 'bogus'"):
            run(problem, 0.1, 0.5, bootstrap_mode="bogus")


def draw_spec(rng) -> dict:
    """SweepSpec fields over the ranges the CLI accepts, log-uniform where they span decades."""
    T = 10 ** rng.uniform(-8, 3)
    length = 10 ** rng.uniform(-160, 160)
    x_left = -length * rng.uniform()
    steps = int(rng.integers(1, 40))
    return dict(
        kind="run",
        N_list=(int(rng.integers(1, 48)),),
        dt=T / steps,
        T=T,
        domain=(x_left, x_left + length),
        schemes=[("proposed",), ("frutos",), ("proposed", "frutos")][rng.integers(3)],
    )


def test_accepted_specs_run_to_finite_rows():
    # a spec either raises ValueError when made, or runs with no numpy
    # RuntimeWarning to rows whose errors are finite (psi is NaN only
    # where the three-level scheme has none)
    rng = np.random.default_rng(17)
    ran = 0
    for _ in range(300):
        fields = draw_spec(rng)
        try:
            spec = SweepSpec(**fields)
        except ValueError:
            continue
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="solitary wave magnitude")
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_sweep(spec).rows
        ran += 1
        for row in rows:
            if not row.diverged:
                errors = [row.err_u_h2, row.err_u_l2, row.mass_drift]
                if row.scheme == "proposed":
                    errors.append(row.err_psi_l2)
                assert np.all(np.isfinite(errors)), (fields, row)
    assert ran >= 100


class TestReducedSweeps:
    def test_spatial_errors_fall_with_resolution(self):
        spec = spatial_spec(N_list=(32, 64), dt=1e-3, T=1.0)
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert result.fitted_orders is None
        assert result.rows[1].err_u_h2 < result.rows[0].err_u_h2 / 10
        assert result.rows[1].err_psi_l2 < result.rows[0].err_psi_l2 / 10

    def test_single_entry_spatial_sweep(self):
        result = run_sweep(spatial_spec(N_list=(32,), dt=1e-2, T=1.0))
        assert len(result.rows) == 1

    def test_temporal_sweep_fits_second_order(self):
        spec = temporal_spec(N_list=(128,), T=2.0)
        result = run_sweep(spec)
        assert 1.8 <= result.fitted_orders["err_psi_l2"] <= 2.2
        assert 1.8 <= result.fitted_orders["err_u_h2"] <= 2.2

    def test_determinism(self):
        spec = temporal_spec(N_list=(64,), T=1.0)
        a = run_sweep(spec)
        b = run_sweep(spec)
        for ra, rb in zip(a.rows, b.rows):
            da = dataclasses.asdict(ra)
            db = dataclasses.asdict(rb)
            da.pop("wall_seconds")
            db.pop("wall_seconds")
            assert da == db

    def test_batched_rows_share_wall_time_by_step_count(self):
        spec = temporal_spec(N_list=(64,), T=1.0)
        rows = run_sweep(spec).rows
        assert all(row.wall_seconds > 0 for row in rows)
        per_step = [row.wall_seconds / row.K for row in rows]
        assert per_step == pytest.approx([per_step[0]] * len(STEP_COUNTS), rel=1e-12)

    def test_temporal_rows_equal_single_runs(self):
        # the batched sweep and a run of each step size give the same numbers
        spec = temporal_spec(N_list=(64,), T=1.0)
        for row in run_sweep(spec).rows:
            (solo,) = run_sweep(SweepSpec(kind="run", N_list=(64,), dt=row.dt, T=1.0)).rows
            assert dataclasses.replace(row, wall_seconds=0.0) == dataclasses.replace(
                solo, kind="temporal", wall_seconds=0.0
            )

    @pytest.mark.parametrize(
        "scheme, N, dt, T", [("proposed", 256, 0.1, 100.0), ("frutos", 128, 0.01, 1.0)]
    )
    def test_mass_drift_is_the_residual_of_the_mass_law(self, scheme, N, dt, T):
        # the offset domain cuts the wave's tails unevenly, so the mass moves
        # at the rate its start sets: |mass(T) - mass(0)| / |mass(0)| is
        # 6.4e-9 and 6.0e-11 here, while the law itself holds to round-off
        spec = SweepSpec(kind="run", N_list=(N,), dt=dt, T=T, domain=(-38.75, 41.25),
                         schemes=(scheme,))
        (row,) = run_sweep(spec).rows
        assert row.mass_drift < 1e-12

    def test_stability_rows_cover_both_schemes(self):
        spec = stability_spec(N_list=(32, 64), dt=0.1, T=1.0)
        result = run_sweep(spec)
        # scheme by scheme, then N by N
        assert [(row.scheme, row.N) for row in result.rows] == [
            ("proposed", 32),
            ("proposed", 64),
            ("frutos", 32),
            ("frutos", 64),
        ]
        # at this benign resolution neither scheme diverges
        assert not any(row.diverged for row in result.rows)
        # the three-level scheme has no psi
        assert [np.isnan(row.err_psi_l2) for row in result.rows] == [False] * 2 + [True] * 2

    def test_one_batch_per_grid_gives_the_rows_of_single_scheme_sweeps(self):
        spec = stability_spec(T=0.5, N_list=(16, 32))
        mixed = run_sweep(spec).rows
        single = [
            row
            for scheme in spec.schemes
            for row in run_sweep(dataclasses.replace(spec, schemes=(scheme,))).rows
        ]
        assert [(row.scheme, row.N) for row in mixed] == [
            ("proposed", 16), ("proposed", 32), ("frutos", 16), ("frutos", 32)
        ]
        # repr compares floats exactly and takes the three-level nan psi error as equal
        assert [repr(dataclasses.replace(row, wall_seconds=0.0)) for row in mixed] == [
            repr(dataclasses.replace(row, wall_seconds=0.0)) for row in single
        ]

    def test_published_specs_batch_consecutive_grids_within_one_dense_grid(self, monkeypatch):
        # consecutive N share a batch while the dense grids' sum of n^2 stays
        # within 2 DENSE_MAX_POINTS^2: each holds one DFT matrix, so a batch's
        # matrices fit in the bytes of one 257-point grid's forward and inverse
        # pair, (257, 258) floats each; FFT and two-stage grids hold none
        spatial = [[32, 40, 48, 56, 64, 72, 80, 88], [96, 104, 112], [120, 128]]
        published = [(spatial_spec(), spatial), (stability_spec(), [[64, 128, 256, 512]]),
                     (temporal_spec(), [[512]]), (run_spec(), [[512]])]
        for spec, batches in published:
            assert sweeps._batches(spec) == batches
            for batch in batches:
                grids = [spec._grid(N) for N in batch]
                dense = [g._dense_dft[0].nbytes for g in grids if g._dense_dft is not None]
                assert sum(dense) <= 2 * DENSE_MAX_POINTS * (DENSE_MAX_POINTS + 1) * 8
        # run_sweep steps each batch as one run_batch
        calls = []

        def recorded(problems, *args):
            calls.append([problem.grid.half_modes for problem in problems])
            return run_batch(problems, *args)

        monkeypatch.setattr(sweeps, "run_batch", recorded)
        run_sweep(spatial_spec(T=1e-3))
        assert calls == spatial

    def test_diverged_row_is_charged_up_to_its_blow_up(self):
        # both schemes share the N = 512 batch; the three-level row leaves at step 762
        proposed, frutos = run_sweep(stability_spec(N_list=(512,))).rows
        assert frutos.diverged and not proposed.diverged
        assert frutos.wall_seconds / proposed.wall_seconds == pytest.approx(762 / 1000, rel=1e-12)

    def test_divergent_row_flagged_and_sweep_continues(self):
        # calibrated divergent point for the three-level scheme
        spec = stability_spec(N_list=(64, 512), dt=0.1, T=100.0, schemes=("frutos",))
        result = run_sweep(spec)
        flags = [row.diverged for row in result.rows]
        assert flags == [False, True]
        bad = result.rows[1]
        assert bad.err_u_h2 == float("inf")

    def test_spatial_decay_monotone_until_saturation(self):
        spec = spatial_spec(N_list=(32, 40, 48, 64), dt=1e-3, T=1.0)
        result = run_sweep(spec)
        errs = [row.err_u_h2 for row in result.rows]
        floor = min(errs)
        for prev, cur in zip(errs, errs[1:]):
            if prev <= 5 * floor:
                break
            assert cur <= prev

    def test_domain_that_cuts_the_wave_warns(self):
        spec = SweepSpec(kind="run", N_list=(32,), dt=0.1, T=0.2, domain=(-5.0, 5.0))
        with pytest.warns(UserWarning, match="domain boundary"):
            run_sweep(spec)

    def test_domain_warning_points_at_the_caller(self):
        spec = SweepSpec(kind="run", N_list=(32,), dt=0.1, T=0.2, domain=(-5.0, 5.0))
        with pytest.warns(UserWarning, match="domain boundary") as rec:
            run_sweep(spec)
        assert rec[0].filename == __file__

    def test_shifted_published_domains_do_not_warn(self):
        # the wave stays below the warning threshold at domain offsets up to 2
        for domain in ((-42.0, 38.0), (-38.0, 42.0)):
            spec = SweepSpec(kind="run", N_list=(32,), dt=0.1, T=0.2, domain=domain)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run_sweep(spec)
