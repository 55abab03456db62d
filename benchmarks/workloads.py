"""The four solitary-wave workloads: their inputs, one pass, and its gate.

Every workload solves the published solitary-wave problem (amplitude 0.5
on a periodic interval of length 80).  The seed only shifts the domain by
an offset s, to (-40 + s, 40 + s): the data differ from seed to seed while
the work, the grids and the stability map stay the same.

The ladders go through ``boussinesq.cli.main`` with documented flags only,
so that refactors of the sweeps and steppers do not change what is timed.
``observed-soliton`` calls ``stepping.run`` directly, because the CLI has
no way to attach an observer.

Module attributes of the package are looked up at call time
(``bq.diagnostics.mass``, not a name bound at import), so that the traced
run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

AMPLITUDE = 0.5
HALF_LENGTH = 40.0
OFFSET_STEP = 0.25
OFFSET_COUNT = 17  # offsets -2.0, -1.75, ..., 2.0; seed 0 gives 0

# shortened from the published T = 4 so that a pass takes about 2 s; at
# T = 0.05 the round-off floor no longer stays within 5x of its minimum
SPATIAL_T = 0.1
OBSERVED_N = 2048
OBSERVED_DT = 4e-3
OBSERVED_T = 1.2

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def domain_offset(seed: int) -> float:
    """The domain shift s that a workload seed selects."""
    half = OFFSET_COUNT // 2
    return OFFSET_STEP * ((seed + half) % OFFSET_COUNT - half)


@dataclass(frozen=True)
class Workload:
    name: str
    # (scheme, N, dt) of every run the workload makes; setup builds each
    runs: tuple[tuple[str, int, float], ...]
    # CLI subcommand and flags of a ladder; None for observed-soliton
    argv: tuple[str, ...] | None = None


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spatial-ladder",
            tuple(("proposed", n, 1e-4) for n in range(32, 136, 8)),
            ("sweep-space", f"--T={SPATIAL_T!r}", "--dt=0.0001"),
        ),
        Workload(
            "temporal-ladder",
            tuple(("proposed", 512, 4.0 / k) for k in range(100, 1100, 100)),
            ("sweep-time",),
        ),
        Workload(
            "stability-ladder",
            tuple(
                (scheme, n, 0.1)
                for scheme in ("proposed", "frutos")
                for n in (64, 128, 256, 512)
            ),
            ("stability",),
        ),
        Workload("observed-soliton", (("proposed", OBSERVED_N, OBSERVED_DT),)),
    )
}


def build_run(bq, offset: float, scheme: str, N: int, dt: float):
    """Grid, exact initial state and stepper of one run, as a run builds them."""
    grid = bq.spectral.Grid(
        half_modes=N, length=2 * HALF_LENGTH, x_left=-HALF_LENGTH + offset
    )
    params = bq.waves.params_from_amplitude(AMPLITUDE)
    problem = bq.waves.solitary_problem(params, grid)
    if scheme == "frutos":
        state = bq.stepping.bootstrap_frutos(problem, dt, params)
        stepper = bq.stepping.FrutosStepper(grid, dt)
    else:
        state = bq.stepping.bootstrap(problem, dt, mode="exact", params=params)
        stepper = bq.stepping.ProposedStepper(grid, dt, problem.power)
    return grid, state, stepper


def setup(bq, workload: Workload, offset: float) -> None:
    """Build every grid, exact initial state and stepper the workload needs."""
    for scheme, N, dt in workload.runs:
        build_run(bq, offset, scheme, N, dt)


def run_pass(bq, workload: Workload, offset: float, out_dir: Path):
    """One complete pass; returns what its gate checks.

    An exception the package raises is the pass's outcome, not the
    benchmark's: it is returned, and the gate fails the pass.
    """
    try:
        if workload.argv is None:
            return _observed_pass(bq, offset)
        return _ladder_pass(bq, workload, offset, out_dir)
    except Exception as exc:  # noqa: BLE001 - any failure of the program under test
        return {"error": f"{type(exc).__name__}: {exc}"}


def _ladder_pass(bq, workload: Workload, offset: float, out_dir: Path):
    path = out_dir / f"{workload.name}.csv"
    argv = [
        *workload.argv,
        f"--xmin={-HALF_LENGTH + offset!r}",
        f"--xmax={HALF_LENGTH + offset!r}",
        f"--out={path}",
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        try:
            code = bq.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    rows = bq.reporting.read_csv(path) if code == 0 else []
    return {"code": code, "printed": printed.getvalue(), "rows": rows, "path": path}


def _observed_pass(bq, offset: float):
    grid = bq.spectral.Grid(
        half_modes=OBSERVED_N, length=2 * HALF_LENGTH, x_left=-HALF_LENGTH + offset
    )
    params = bq.waves.params_from_amplitude(AMPLITUDE)
    problem = bq.waves.solitary_problem(params, grid)
    seen = []

    def observe(state):
        bq.diagnostics.error_norms(state, params)
        seen.append(
            (
                state.time,
                bq.diagnostics.mass(grid, state.u_curr),
                bq.diagnostics.crest_position(grid, state.u_curr),
            )
        )

    result = bq.stepping.run(
        problem,
        OBSERVED_DT,
        OBSERVED_T,
        params=params,
        bootstrap_mode="exact",
        observers=(observe,),
    )
    return {
        "diverged": result.diverged,
        "seen": seen,
        "grid": grid,
        "params": params,
        "mass_rate": bq.diagnostics.mass(grid, problem.initial_ut),
    }


def check(bq, workload: Workload, offset: float, out) -> list[str]:
    """Every way the pass's output breaks the workload's gate (empty if none)."""
    if "error" in out:
        return [f"the pass raised {out['error']}"]
    if workload.argv is None:
        return _check_observed(out)
    if out["code"] != 0:
        return [f"cli.main returned {out['code']}"]
    problems = _check_round_trip(bq, out)
    rows = out["rows"]
    expected = [(scheme, N) for scheme, N, _ in workload.runs]
    if [(r.scheme, r.N) for r in rows] != expected:
        return problems + ["rows do not match the workload's runs"]
    gate = {
        "spatial-ladder": _check_spatial,
        "temporal-ladder": _check_temporal,
        "stability-ladder": _check_stability,
    }[workload.name]
    return problems + gate(bq, rows, offset, out)


_FIELD = re.compile(r"(\w+)=\s*(\S+)")


def _check_round_trip(bq, out) -> list[str]:
    """The CSV re-writes to the same bytes and matches the printed rows."""
    problems = []
    path = out["path"]
    again = path.with_name(path.stem + ".again.csv")
    bq.reporting.write_csv(bq.sweeps.SweepResult(spec=None, rows=tuple(out["rows"])), again)

    def data_lines(p):
        return [ln for ln in p.read_text().splitlines() if not ln.startswith("#")]

    if data_lines(again) != data_lines(path):
        problems.append("read_csv/write_csv round trip is not bit-exact")
    printed = [ln for ln in out["printed"].splitlines() if " N=" in ln]
    if len(printed) != len(out["rows"]):
        return problems + ["printed row count differs from the CSV"]
    for line, row in zip(printed, out["rows"]):
        fields = dict(_FIELD.findall(line))
        if int(fields.get("N", -1)) != row.N or ("DIVERGED" in line) != row.diverged:
            problems.append(f"printed row {line!r} differs from the CSV")
            continue
        for key in ("dt", "err_psi_l2", "err_u_h2"):
            text = fields.get(key, "")
            if text != _like(getattr(row, key), text):
                problems.append(f"printed {key}={text} differs from the CSV value")
    return problems


def _like(value: float, text: str) -> str:
    """``value`` printed with as many digits as ``text`` has."""
    if not math.isfinite(value):
        return str(value)
    mantissa = text.split("e")[0]
    digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
    return f"{value:.{digits}e}"


ERRORS = ("err_psi_l2", "err_u_h2")


def floor_rows(errs: list[float]) -> int:
    """Index of the first row within 5x of the smallest error (criterion 2)."""
    floor = min(errs)
    return next(i for i, e in enumerate(errs) if e <= 5 * floor)


def _check_spatial(bq, rows, offset, out) -> list[str]:
    problems = []
    if any(r.diverged for r in rows):
        return ["a spatial-ladder row diverged"]
    by_N = {r.N: r for r in rows}
    reference = load_reference()[repr(offset)]
    for key in ERRORS:
        errs = [getattr(r, key) for r in rows]
        if not getattr(by_N[32], key) > 10 * getattr(by_N[64], key):
            problems.append(f"{key}: err(32)/err(64) is not above 10")
        start, floor = floor_rows(errs), min(errs)
        if any(e > 5 * floor for e in errs[start:]):
            problems.append(f"{key}: a row past the floor leaves 5x the floor")
        ref = reference[key]
        for N, ref_err in zip(ref["N"], ref["err"]):
            got = getattr(by_N[N], key)
            if not abs(got - ref_err) <= 1e-2 * ref_err + 5 * ref["floor"]:
                problems.append(f"{key} at N={N}: {got!r} against reference {ref_err!r}")
    return problems


def _check_temporal(bq, rows, offset, out) -> list[str]:
    problems = []
    dts = [r.dt for r in rows]
    try:
        orders = {key: bq.sweeps.fit_order(dts, [getattr(r, key) for r in rows]) for key in ERRORS}
    except ValueError as exc:  # too few finite errors to fit
        return [f"no order fit: {exc}"]
    for key, order in orders.items():
        if not 1.8 <= order <= 2.2:
            problems.append(f"fitted {key} order {order:.4f} outside [1.8, 2.2]")
    written = [
        float(ln.split("=", 1)[1])
        for ln in out["path"].read_text().splitlines()
        if ln.startswith("# fitted_order=")
    ]
    if written != [orders["err_psi_l2"]]:
        problems.append(f"CSV fitted order {written} differs from the rows' fit")
    return problems


def _check_stability(bq, rows, offset, out) -> list[str]:
    problems = []
    diverged = {(r.scheme, r.N) for r in rows if r.diverged}
    if diverged != {("frutos", 512)}:
        problems.append(f"diverged set {sorted(diverged)} is not {{(frutos, 512)}}")
    proposed = [r for r in rows if r.scheme == "proposed"]
    ref = proposed[0].err_u_h2
    if not all(r.err_u_h2 <= 2.0 * ref for r in proposed):
        problems.append("a proposed row leaves 2x the smallest-N error")
    return problems


def _check_observed(out) -> list[str]:
    problems = []
    if out["diverged"]:
        return ["observed-soliton diverged"]
    steps = round(OBSERVED_T / OBSERVED_DT)
    seen = out["seen"]
    if len(seen) != steps + 1:
        return [f"observer called {len(seen)} times, not {steps + 1}"]
    grid, params = out["grid"], out["params"]
    # the k = 0 mode obeys mass(t) = mass(0) + t * mass(psi): the offset
    # domain cuts the wave's tails unevenly, so mass(psi) is not zero
    mass0, rate = seen[0][1], out["mass_rate"]
    drift = max(abs(m - mass0 - t * rate) for t, m, _ in seen) / abs(mass0)
    if not drift <= 1e-12:
        problems.append(f"relative mass drift {drift:.3e} above 1e-12")
    miss = max(abs(crest - params.speed * t) for t, _, crest in seen)
    if not miss <= grid.spacing:
        problems.append(f"crest {miss:.3e} from c0*t, more than h = {grid.spacing:.3e}")
    return problems


@functools.cache
def load_reference() -> dict:
    """Spatial-ladder rows above the floor, per offset, from the seed commit."""
    return json.loads(REFERENCE_PATH.read_text())
