"""Per-layer metrics: timed calls into each module, and traced passes.

Which end-to-end metric each should move, and on which workload:

* ``stepping.step_us``, ``driver_overhead_us``, ``run_us_per_step``,
  ``steps`` and the numpy call counts move ``pass_s`` on every workload
  (``frutos`` only on stability-ladder; run-loop overhead mostly on
  spatial-ladder, whose steps are shortest);
* ``stepping.plan_us`` moves ``setup_s``;
* ``stepping.blowup_step.frutos.N512`` would show a change that delays or
  misses divergence (a failed stability-ladder gate);
* ``spectral.*`` moves ``pass_s`` on observed-soliton and temporal-ladder;
* ``waves.*`` and ``diagnostics.*`` move ``pass_s`` on observed-soliton;
* ``sweeps.row_overhead_s``, ``reporting.*`` move ``pass_s`` on the
  ladders (the reporting ones are predicted not to move);
* ``sweeps.cpu_s`` gates nothing: it shows the CPU a process pool burns;
* ``verification.run_checks_s`` is the benchmark's own preflight cost.

Per-layer times are plain wall times, not rescaled like the end-to-end
ones, so they carry the host's drift; compare them between commits only
in runs made side by side.  The traced values (``run_us_per_step``,
``*.self_s``, ``row_overhead_s``, ``reporting.*``) include the tracing's
own cost, which ``trace.overhead_s`` shows per pass.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from tracing import Tracer
from workloads import (
    AMPLITUDE,
    HALF_LENGTH,
    WORKLOADS,
    build_run,
    check,
    run_pass,
)

STEP_NS = (32, 128, 512, 2048)
FFT_LENGTHS = tuple(2 * n + 1 for n in range(32, 136, 8)) + (513, 1025, 4097)
LADDERS = ("spatial-ladder", "temporal-ladder", "stability-ladder")
LADDER_LAYERS = ("cli", "sweeps", "reporting", "stepping", "spectral", "waves", "diagnostics")
SOLITON_LAYERS = ("stepping", "spectral", "waves", "diagnostics")
MICRO_DT = 4e-3


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for scheme in ("proposed", "frutos"):
        for n in STEP_NS:
            units[f"stepping.step_us.{scheme}.N{n}"] = "us"
    for n in STEP_NS:
        units[f"stepping.driver_overhead_us.N{n}"] = "us"
        units[f"stepping.plan_us.N{n}"] = "us"
    units["stepping.fft_calls_per_step.proposed"] = "count"
    units["stepping.fft_calls_per_step.frutos"] = "count"
    units["stepping.mean_calls_per_step.proposed"] = "count"
    units["stepping.blowup_step.frutos.N512"] = "count"
    for length in FFT_LENGTHS:
        units[f"spectral.fft_us.L{length}"] = "us"
        units[f"spectral.rfft_us.L{length}"] = "us"
    for n in STEP_NS:
        units[f"spectral.derivative_us.N{n}"] = "us"
        units[f"waves.solitary_wave_us.N{n}"] = "us"
        units[f"diagnostics.error_norms_us.N{n}"] = "us"
    units["diagnostics.mass_us.N2048"] = "us"
    units["diagnostics.crest_position_us.N2048"] = "us"
    units["sweeps.fit_order_us"] = "us"
    units["verification.run_checks_s"] = "s"
    for name in WORKLOADS:
        units[f"stepping.run_us_per_step.{name}"] = "us"
        units[f"stepping.steps.{name}"] = "count"
        units[f"waves.calls.{name}"] = "count"
        units[f"sweeps.cpu_s.{name}"] = "s"
        units[f"trace.overhead_s.{name}"] = "s"
        for layer in LADDER_LAYERS if name in LADDERS else SOLITON_LAYERS:
            units[f"{layer}.self_s.{name}"] = "s"
    for name in LADDERS:
        units[f"sweeps.row_overhead_s.{name}"] = "s"
        units[f"reporting.write_csv_us.{name}"] = "us"
        units[f"reporting.read_csv_us.{name}"] = "us"
    units["diagnostics.share.observed-soliton"] = "ratio"
    return units


def time_us(fn, repeats: int = 5, block_s: float = 0.004) -> float:
    """Median over ``repeats`` blocks of the time of one call, in us."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= block_s:
            break
        number *= 2
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e6


def micro(bq, offset: float) -> dict[str, float]:
    """Timed calls into each module's public functions, untraced."""
    out = {}
    params = bq.waves.params_from_amplitude(AMPLITUDE)
    for n in STEP_NS:
        out.update(_micro_N(bq, offset, params, n))
    out.update(_micro_rest(bq, offset))
    out.update(_counts(bq, offset))
    return out


def _micro_N(bq, offset: float, params, n: int) -> dict[str, float]:
    out = {}
    grid, state, stepper = build_run(bq, offset, "proposed", n, MICRO_DT)
    u, psi, u_prev = state.u_curr, state.psi_curr, state.u_prev
    out[f"stepping.step_us.proposed.N{n}"] = time_us(lambda: stepper.step_arrays(u, psi, u_prev))
    _, fstate, fstepper = build_run(bq, offset, "frutos", n, MICRO_DT)
    out[f"stepping.step_us.frutos.N{n}"] = time_us(
        lambda: fstepper.step_arrays(fstate.u_curr, fstate.u_prev)
    )
    out[f"stepping.driver_overhead_us.N{n}"] = _run_overhead_us(bq, grid, params, n)
    out[f"stepping.plan_us.N{n}"] = time_us(
        lambda: bq.stepping.ProposedStepper(
            bq.spectral.Grid(n, 2 * HALF_LENGTH, grid.x_left), MICRO_DT, 2
        )
    )
    out[f"spectral.derivative_us.N{n}"] = time_us(lambda: bq.spectral.derivative(grid, u, 2))
    out[f"waves.solitary_wave_us.N{n}"] = time_us(
        lambda: bq.waves.solitary_wave(params, grid.nodes, 0.3)
    )
    out[f"diagnostics.error_norms_us.N{n}"] = time_us(
        lambda: bq.diagnostics.error_norms(state, params)
    )
    return out


def _micro_rest(bq, offset: float) -> dict[str, float]:
    out = {}
    grid, state, _ = build_run(bq, offset, "proposed", 2048, MICRO_DT)
    out["diagnostics.mass_us.N2048"] = time_us(
        lambda: bq.diagnostics.mass(grid, state.u_curr)
    )
    out["diagnostics.crest_position_us.N2048"] = time_us(
        lambda: bq.diagnostics.crest_position(grid, state.u_curr)
    )

    rng = np.random.default_rng(0)
    for length in FFT_LENGTHS:
        x = rng.standard_normal(length)
        out[f"spectral.fft_us.L{length}"] = time_us(lambda: np.fft.fft(x))
        out[f"spectral.rfft_us.L{length}"] = time_us(lambda: np.fft.rfft(x))

    dts = [4.0 / k for k in range(100, 1100, 100)]
    errs = [3e-3 * dt**2 for dt in dts]
    out["sweeps.fit_order_us"] = time_us(lambda: bq.sweeps.fit_order(dts, errs))
    checks = []
    for _ in range(3):
        start = time.perf_counter()
        bq.verification.run_checks()
        checks.append(time.perf_counter() - start)
    out["verification.run_checks_s"] = statistics.median(checks)
    return out


def _run_overhead_us(bq, grid, params, n: int) -> float:
    """``run()`` time per step minus a bare ``step_arrays`` loop's, over K steps.

    K is fixed per N, so the stepper and bootstrap that ``run()`` builds
    are amortized the same way on every commit.
    """
    steps = 25 if n >= 2048 else 200
    problem = bq.waves.solitary_problem(params, grid)
    state = bq.stepping.bootstrap(problem, MICRO_DT, mode="exact", params=params)
    stepper = bq.stepping.ProposedStepper(grid, MICRO_DT, problem.power)

    def driven():
        bq.stepping.run(
            problem, MICRO_DT, steps * MICRO_DT, params=params, bootstrap_mode="exact"
        )

    def bare():
        u, psi, u_prev = state.u_curr, state.psi_curr, state.u_prev
        for _ in range(steps):
            u_new, psi = stepper.step_arrays(u, psi, u_prev)
            u_prev, u = u, u_new

    diffs = []
    for _ in range(3):
        start = time.perf_counter()
        driven()
        middle = time.perf_counter()
        bare()
        diffs.append(2 * middle - start - time.perf_counter())
    return statistics.median(diffs) / steps * 1e6


def _counts(bq, offset: float) -> dict[str, float]:
    out = {}
    steps = 10
    _, state, stepper = build_run(bq, offset, "proposed", 32, MICRO_DT)
    _, fstate, fstepper = build_run(bq, offset, "frutos", 32, MICRO_DT)
    with Tracer().install(numpy_only=True) as tracer:
        for _ in range(steps):
            stepper.step_arrays(state.u_curr, state.psi_curr, state.u_prev)
        proposed = dict(tracer.counts)
        tracer.counts.clear()
        for _ in range(steps):
            fstepper.step_arrays(fstate.u_curr, fstate.u_prev)
        frutos = dict(tracer.counts)

    def ffts(counts):
        return sum(v for k, v in counts.items() if k.startswith("numpy.fft.")) / steps

    out["stepping.fft_calls_per_step.proposed"] = ffts(proposed)
    out["stepping.fft_calls_per_step.frutos"] = ffts(frutos)
    out["stepping.mean_calls_per_step.proposed"] = proposed.get("numpy.mean", 0) / steps

    grid, _, _ = build_run(bq, offset, "frutos", 512, 0.1)
    params = bq.waves.params_from_amplitude(AMPLITUDE)
    result = bq.stepping.run(
        bq.waves.solitary_problem(params, grid),
        0.1,
        100.0,
        scheme="frutos",
        params=params,
        bootstrap_mode="exact",
    )
    out["stepping.blowup_step.frutos.N512"] = result.blowup_step or 0
    return out


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def traced_round(bq, offset: float, out_dir, tracer: Tracer, traced_first: bool):
    """One untraced and one traced pass of every workload.

    Returns (per-layer values, passes attempted, passes failed).
    """
    out, attempted, failed = {}, 0, 0
    for name, workload in WORKLOADS.items():
        pass_s = {}
        for traced in (True, False) if traced_first else (False, True):
            cpu, mark = _cpu_s(), tracer.mark()
            start = time.perf_counter()
            if traced:
                tracer.install()
            try:
                result = run_pass(bq, workload, offset, out_dir)
            finally:
                tracer.uninstall()
            pass_s[traced], cpu = time.perf_counter() - start, _cpu_s() - cpu
            attempted += 1
            failed += bool(check(bq, workload, offset, result))
            if traced:
                out.update(_traced_values(name, tracer.summary(mark), pass_s[traced]))
            else:
                out[f"sweeps.cpu_s.{name}"] = cpu
        out[f"trace.overhead_s.{name}"] = pass_s[True] - pass_s[False]
    return out, attempted, failed


def _traced_values(name: str, summary, wall: float) -> dict[str, float]:
    out = {}
    calls, self_s, inclusive = summary["calls"], summary["self_s"], summary["inclusive_s"]
    # a failed pass may have made no steps or rows; it is counted as failed
    steps = max(1, sum(v for k, v in calls.items() if k.endswith(".step_arrays")))
    out[f"stepping.steps.{name}"] = steps
    out[f"stepping.run_us_per_step.{name}"] = inclusive["stepping.run"] / steps * 1e6
    out[f"waves.calls.{name}"] = sum(v for k, v in calls.items() if k.startswith("waves."))
    for layer in LADDER_LAYERS if name in LADDERS else SOLITON_LAYERS:
        out[f"{layer}.self_s.{name}"] = summary["layer_self_s"][layer]
    if name in LADDERS:
        rows = max(1, calls["sweeps.single_run"])
        out[f"sweeps.row_overhead_s.{name}"] = self_s["sweeps.single_run"] / rows
        for fn in ("write_csv", "read_csv"):
            key = f"reporting.{fn}"
            out[f"{key}_us.{name}"] = inclusive[key] / max(1, calls[key]) * 1e6
    else:
        out[f"diagnostics.share.{name}"] = summary["layer_inclusive_s"]["diagnostics"] / wall
    return out
