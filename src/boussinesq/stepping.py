"""Time integration for the good Boussinesq equation.

Two schemes are provided:

* the proposed two-variable scheme: Crank-Nicolson on the linear part of
  the (u, psi) system with an Adams-Bashforth (3/2, -1/2) extrapolation of
  the nonlinear term, solved mode-by-mode in Fourier space;
* the classical three-level scheme of de Frutos/Ortega/Sanz-Serna (p = 2
  only), kept as the stability-comparison baseline.

Both implicit solves are diagonal in Fourier space, so each stepper
carries its state as rfft half-spectra, updates every mode by precomputed
coefficients and makes one rfft and one irfft per step; no matrices are
ever assembled.  A stepper built with an array of step sizes advances one
run per row of a 2-D carry, so runs that share a grid share every call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .spectral import Grid
from .waves import GBProblem, SolitaryWaveParams, _power, solitary_wave

__all__ = [
    "SchemeState",
    "RunResult",
    "build_implicit_diagonal",
    "ProposedStepper",
    "FrutosStepper",
    "bootstrap",
    "bootstrap_frutos",
    "run",
    "run_batch",
]

# A run is declared divergent once the L2 norm of u exceeds this multiple
# of its initial value (or any value goes non-finite).
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SchemeState:
    """State of either scheme: (u^n, psi^n) plus u^{n-1}.

    The three-level scheme has no psi variable; its ``psi_curr`` is None.
    """

    grid: Grid
    step_index: int
    time: float
    u_curr: np.ndarray
    psi_curr: np.ndarray | None
    u_prev: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """Final state of a run plus its divergence flag."""

    state: SchemeState
    diverged: bool
    blowup_step: int | None = None


def build_implicit_diagonal(grid: Grid, dt) -> np.ndarray:
    """Fourier symbol of the implicit operator: 2/dt^2 + (k^4 + k^2)/2.

    Every entry is positive for any dt and grid, which is what makes the
    proposed scheme unconditionally solvable.  An array ``dt`` broadcasts
    against the wavenumbers.
    """
    if not np.all(np.asarray(dt) > 0):
        raise ValueError(f"time step must be positive, got {dt}")
    k2 = grid.wavenumbers**2
    return 2.0 / dt**2 + 0.5 * (k2**2 + k2)


def _column(dt) -> np.ndarray:
    """Step sizes as a column against the modes: shape (m, 1), or (1,) for a float."""
    column = np.asarray(dt, dtype=float)[..., None]
    if column.ndim > 2 or not np.all(column > 0):
        raise ValueError(f"time steps must be positive, in a float or a 1-D array, got {dt}")
    return column


def _pick(carry, dt, row):
    """The carry and step size of one row of a batch; the whole of a single run.

    A row is copied, so that a state kept after its run finishes does not
    hold on to the arrays of the whole batch.
    """
    if row is None:
        return carry, dt
    return [x[row].copy() for x in carry[:2]] + [x[row] for x in carry[2:]], dt[row]


class ProposedStepper:
    """Precomputed-plan stepper for the two-variable scheme.

    The state is carried as the rfft half-spectra U of u and Q of psi.
    Every mode takes the same linear map plus the extrapolated
    nonlinearity:

        U' = a U + b rfft(1.5 u^p - 0.5 u_prev^p) + c Q
        Q' = (2/dt)(U' - U) - Q

    with lam = 2/dt^2 + (k^4 + k^2)/2, a = (2/dt^2 - (k^4 + k^2)/2)/lam,
    b = -k^2/lam and c = (2/dt)/lam.  At k = 0, a = 1, b = 0 and c = dt:
    the mean of u grows by dt times the mean of psi, which never changes.

    ``dt`` is a float, or a 1-D array of m step sizes; the coefficients are
    then shaped (m, half) and the carry holds one run per row.
    """

    def __init__(self, grid: Grid, dt, power: int = 2):
        if power < 2:
            raise ValueError(f"nonlinearity power must be >= 2, got {power}")
        self.grid = grid
        self.dt = dt
        self.power = power
        half = grid.half_modes + 1
        dt = _column(dt)
        k2 = grid.wavenumbers[:half] ** 2
        lam = build_implicit_diagonal(grid, dt)[..., :half]
        # held complex, so that the products with the spectra cast nothing
        self.a = (4.0 / dt**2 / lam - 1.0).astype(complex)
        self.b = (-k2 / lam).astype(complex)
        self.c = (2.0 / dt / lam).astype(complex)
        self.q = (2.0 / dt).astype(complex)

    def start(self, u, psi, u_prev):
        """Spectral carry (u, u_prev, U, Q, u_prev^p) of nodal fields."""
        return u, u_prev, np.fft.rfft(u), np.fft.rfft(psi), _power(u_prev, self.power)

    def advance(self, carry):
        """One step of a spectral carry: one rfft and one irfft."""
        u, _, u_hat, psi_hat, up_prev = carry
        up = _power(u, self.power)
        # in-place updates, in the order of the formulas: a batch holds
        # one temporary per array, not one per operation
        nl = 1.5 * up
        nl -= 0.5 * up_prev
        u_hat_new = self.a * u_hat
        u_hat_new += self.b * np.fft.rfft(nl)
        u_hat_new += self.c * psi_hat
        psi_hat_new = u_hat_new - u_hat
        psi_hat_new *= self.q
        psi_hat_new -= psi_hat
        # the k = 0 mode maps Q_0 to itself; copying it keeps the mean of psi
        # exact, where the formula would add the round-off of U_0' - U_0
        psi_hat_new[..., 0] = psi_hat[..., 0]
        u_new = np.fft.irfft(u_hat_new, self.grid.num_points)
        return u_new, u, u_hat_new, psi_hat_new, up

    def state(self, carry, step_index: int, row: int | None = None) -> SchemeState:
        """State of the carry, or of row ``row`` of a batched carry."""
        (u, u_prev, _, psi_hat, _), dt = _pick(carry, self.dt, row)
        psi = np.fft.irfft(psi_hat, self.grid.num_points)
        return SchemeState(self.grid, step_index, float(step_index * dt), u, psi, u_prev)

    def step_arrays(self, u, psi, u_prev):
        """Advance nodal arrays one step; returns (u_new, psi_new)."""
        u_new, _, _, psi_hat_new, _ = self.advance(self.start(u, psi, u_prev))
        return u_new, np.fft.irfft(psi_hat_new, self.grid.num_points)


class FrutosStepper:
    """Precomputed-plan stepper for the three-level reference scheme (p = 2).

    The state is carried as the rfft half-spectra U of u^n and V of
    u^{n-1}.  With lam = 1/dt^2 + k^4/4 the scheme is, per mode,

        lam U' = (2U - V)/dt^2 - (k^4/4)(2U + V) - k^2 (U + rfft(u^2)),

    that is U' = alpha U + beta V + gamma rfft(u^2).  ``dt`` is a float or
    a 1-D array of step sizes, as for :class:`ProposedStepper`.
    """

    def __init__(self, grid: Grid, dt):
        self.grid = grid
        self.dt = dt
        dt = _column(dt)
        k2 = grid.wavenumbers[: grid.half_modes + 1] ** 2
        k4 = k2**2
        self.lam = 1.0 / dt**2 + 0.25 * k4
        self.alpha = ((2.0 / dt**2 - 0.5 * k4 - k2) / self.lam).astype(complex)
        self.beta = ((-1.0 / dt**2 - 0.25 * k4) / self.lam).astype(complex)
        self.gamma = (-k2 / self.lam).astype(complex)

    def start(self, u, u_prev):
        """Spectral carry (u, u_prev, U, V) of nodal fields."""
        return u, u_prev, np.fft.rfft(u), np.fft.rfft(u_prev)

    def advance(self, carry):
        """One step of a spectral carry: one rfft and one irfft."""
        u, _, u_hat, u_prev_hat = carry
        u_hat_new = (
            self.alpha * u_hat + self.beta * u_prev_hat + self.gamma * np.fft.rfft(u * u)
        )
        return np.fft.irfft(u_hat_new, self.grid.num_points), u, u_hat_new, u_hat

    def state(self, carry, step_index: int, row: int | None = None) -> SchemeState:
        """State of the carry, or of row ``row`` of a batched carry; psi is None."""
        (u, u_prev, *_), dt = _pick(carry, self.dt, row)
        return SchemeState(self.grid, step_index, float(step_index * dt), u, None, u_prev)

    def step_arrays(self, u, u_prev):
        """Advance nodal arrays one step; returns u_new."""
        return self.advance(self.start(u, u_prev))[0]


def bootstrap(
    problem: GBProblem,
    dt: float,
    mode: str = "self_start",
    params: SolitaryWaveParams | None = None,
) -> SchemeState:
    """Initial state for the proposed scheme.

    The scheme needs u^{-1} for the nonlinear extrapolation.  ``self_start``
    takes u^{-1} := u^0, degrading the first extrapolation to (u^0)^p -- a
    one-step O(dt^2) local loss that leaves the global order intact.
    ``exact`` samples the attached solitary wave at t = -dt and is used for
    reference runs.
    """
    if not dt > 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if mode == "self_start":
        u_prev = problem.initial_u.copy()
    elif mode == "exact":
        if params is None:
            raise ValueError("exact bootstrap requires solitary-wave parameters")
        u_prev = solitary_wave(params, problem.grid.nodes, -dt)
    else:
        raise ValueError(f"unknown bootstrap mode {mode!r}")
    return SchemeState(
        grid=problem.grid,
        step_index=0,
        time=0.0,
        u_curr=problem.initial_u.copy(),
        psi_curr=problem.initial_ut.copy(),
        u_prev=u_prev,
    )


def bootstrap_frutos(
    problem: GBProblem, dt: float, params: SolitaryWaveParams
) -> SchemeState:
    """Initial state for the three-level scheme: exact-started, with no psi."""
    if problem.power != 2:
        raise ValueError("the three-level reference scheme only supports p = 2")
    return replace(bootstrap(problem, dt, "exact", params), psi_curr=None)


def _num_steps(T: float, dt: float) -> int:
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"final time {T} is not an integer multiple of dt={dt}")
    return steps


def run(
    problem: GBProblem,
    dt: float,
    T: float,
    scheme: str = "proposed",
    bootstrap_mode: str = "self_start",
    params: SolitaryWaveParams | None = None,
    observers=(),
    stride: int = 1,
) -> RunResult:
    """Advance the problem to time T, watching for blow-up: a batch of one.

    Observers are callables invoked with the current state every ``stride``
    steps (and at step 0 and the final step).  On divergence the partial
    state is returned with the blow-up step recorded; nothing is raised.
    """
    return run_batch(
        problem, (dt,), T, scheme, bootstrap_mode, params, observers, stride
    )[0]


def run_batch(
    problem: GBProblem,
    dts,
    T: float,
    scheme: str = "proposed",
    bootstrap_mode: str = "self_start",
    params: SolitaryWaveParams | None = None,
    observers=(),
    stride: int = 1,
) -> tuple[RunResult, ...]:
    """Advance one run per step size in ``dts`` to time T, all together.

    The runs are the rows of one 2-D carry, so every step makes one rfft
    and one irfft for the whole batch.  Each row's result equals that of
    :func:`run` at its step size bit for bit, and the results come back in
    the order of ``dts``.  Observers see every row's state, as in
    :func:`run`; a row that diverges is dropped from the batch with its
    partial state and blow-up step recorded.
    """
    steps = [_num_steps(T, dt) for dt in dts]
    # longest first: the rows still running are always a prefix, and the
    # last of them is the next to finish
    order = sorted(range(len(steps)), key=steps.__getitem__, reverse=True)
    if scheme == "proposed":
        starts = [bootstrap(problem, dts[i], bootstrap_mode, params) for i in order]
        plan = functools.partial(ProposedStepper, problem.grid, power=problem.power)
        fields = ("u_curr", "psi_curr", "u_prev")
    elif scheme == "frutos":
        if params is None:
            raise ValueError("the three-level scheme needs solitary-wave parameters")
        starts = [bootstrap_frutos(problem, dts[i], params) for i in order]
        plan = functools.partial(FrutosStepper, problem.grid)
        fields = ("u_curr", "u_prev")
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    # ||u||_rms > ceiling  <=>  u.u > n * ceiling^2 for a row; a NaN or inf
    # fails the comparison "u.u <= limit" as well.  np.vdot sums over the
    # whole batch: no row can exceed the limit while the sum does not, so
    # the loop looks at single rows only when the sum fails.
    norm0 = float(np.sqrt(np.mean(problem.initial_u**2)))
    limit = problem.grid.num_points * (BLOWUP_FACTOR * max(norm0, 1.0)) ** 2

    for state in starts:
        for obs in observers:
            obs(state)
    results = [None] * len(steps)
    for i, state in zip(order, starts):
        if not steps[i]:
            results[i] = RunResult(state=state, diverged=False)
    rows = [i for i in order if steps[i]]
    if not rows:
        return tuple(results)
    stepper = plan(np.array([dts[i] for i in rows], dtype=float))
    carry = stepper.start(
        *(np.stack([getattr(s, f) for s in starts[: len(rows)]]) for f in fields)
    )
    del starts  # the carry holds copies
    last = steps[rows[-1]]
    for n in range(1, steps[rows[0]] + 1):
        carry = stepper.advance(carry)
        u = carry[0]
        bounded = np.vdot(u, u) <= limit
        watched = observers and n % stride == 0
        if bounded and n < last and not watched:
            continue
        # a row diverged, finishes or is observed: look at the rows one by one
        keep = []
        for pos, i in enumerate(rows):
            if not (bounded or np.vdot(u[pos], u[pos]) <= limit):
                state = stepper.state(carry, n, pos)
                results[i] = RunResult(state=state, diverged=True, blowup_step=n)
            elif watched or n == steps[i]:
                state = stepper.state(carry, n, pos)
                for obs in observers:
                    obs(state)
                if n == steps[i]:
                    results[i] = RunResult(state=state, diverged=False)
            keep.append(results[i] is None)
        if not all(keep):
            rows = [i for i, k in zip(rows, keep) if k]
            if not rows:
                break
            carry = tuple(x[keep] for x in carry)
            stepper, last = plan(stepper.dt[keep]), steps[rows[-1]]
    return tuple(results)
