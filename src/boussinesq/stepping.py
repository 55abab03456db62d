"""Time integration for the good Boussinesq equation.

Two schemes are provided:

* the proposed two-variable scheme: Crank-Nicolson on the linear part of
  the (u, psi) system with an Adams-Bashforth (3/2, -1/2) extrapolation of
  the nonlinear term, solved mode-by-mode in Fourier space;
* the classical three-level scheme of de Frutos/Ortega/Sanz-Serna (p = 2
  only), kept as the stability-comparison baseline.

Both implicit solves are diagonal in Fourier space, so both schemes are
one :class:`LinearStepper` with their own coefficients: it carries two
rfft half-spectra, maps every mode by the same 2x2 linear update plus a
forcing by the nonlinearity, and makes one forward and one inverse
transform of the grid per step (:meth:`Grid.rfft`, :meth:`Grid.irfft`).
A batch stacks the steppers of every run on one grid, of any scheme and
step size, as the rows of one 2-D carry, so those runs share every call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .spectral import Grid, _check_integer
from .waves import GBProblem, SolitaryWaveParams, _check_power, _power, solitary_wave

__all__ = [
    "SCHEMES",
    "SchemeState",
    "build_implicit_diagonal",
    "LinearStepper",
    "ProposedStepper",
    "FrutosStepper",
    "bootstrap",
    "bootstrap_frutos",
    "run",
    "run_batch",
]

# the time schemes a run can step
SCHEMES = ("proposed", "frutos")

# A run is declared divergent once the L2 norm of u exceeds this multiple
# of its initial value (or any value goes non-finite).
BLOWUP_FACTOR = 1e6


@dataclass(frozen=True)
class SchemeState:
    """State of either scheme: (u^n, psi^n) plus u^{n-1}.

    The three-level scheme has no psi variable; its ``psi_curr`` is None.
    A run that stops at its blow-up step returns that state, ``diverged``.
    """

    grid: Grid
    step_index: int
    time: float
    u_curr: np.ndarray
    psi_curr: np.ndarray | None
    u_prev: np.ndarray
    diverged: bool = False

    @property
    def blowup_step(self) -> int | None:
        """The step a diverged run blew up at, or None."""
        return self.step_index if self.diverged else None


def build_implicit_diagonal(grid: Grid, dt) -> np.ndarray:
    """Fourier symbol of the implicit operator on the half spectrum: 2/dt^2 + (k^4 + k^2)/2.

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
    if column.ndim > 2 or not np.all((column > 0) & (column < np.inf)):
        raise ValueError(f"time step must be positive and finite (a float or 1-D array), got {dt}")
    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(4.0 / column**2)):
            raise ValueError(f"time step too small: 1/dt^2 overflows, got dt = {dt}")
    return column


class LinearStepper:
    """Precomputed-plan stepper for a scheme that is linear in each mode.

    The state is carried as two rfft half-spectra: Y of u, and Z, which is
    that of psi in the rows that have psi (``has_psi``).  With the
    nonlinearity N = rfft(w0 u^p + w1 u_prev^p), every mode takes

        Y' = m Y + f N + c Z
        Z' = q (Y' - Y) - s Z

    so the linear part of a step is :attr:`matrix`.  ``dt`` is a float, or
    a 1-D array of step sizes; the coefficients then have one row per step
    size, shape (rows, half), and the carry holds one run per row.  Columns
    of weights and a ``has_psi`` flag per row let rows differ in scheme.
    """

    def __init__(self, grid: Grid, power, dt, w0, w1, m, f, c, q, s, has_psi):
        self.grid = grid
        self.dt = dt
        self.power = power
        self.w0, self.w1 = (np.full(np.shape(dt) + (1,), w, dtype=float) for w in (w0, w1))
        # a weight all rows share multiplies as a scalar: cheaper per step than its column
        self.weights = [w if len(set(w.flat)) > 1 else w.item(0) for w in (self.w0, self.w1)]
        self.has_psi = np.full(np.shape(dt), has_psi, dtype=bool)
        # held complex and C-ordered, like the spectra, so that the products
        # with them cast nothing and walk both operands in the same order
        self.m, self.f, self.c, self.q, self.s = (
            np.ascontiguousarray(x, dtype=complex) for x in np.broadcast_arrays(m, f, c, q, s)
        )

    def _per_row(self) -> tuple:
        """The per-row data, in the constructor's order."""
        return (self.dt, self.w0, self.w1, self.m, self.f, self.c, self.q, self.s, self.has_psi)

    def take(self, keep) -> LinearStepper:
        """The batch of the rows ``keep`` selects, sliced: the bits of those rows built alone."""
        return LinearStepper(self.grid, self.power, *(x[keep] for x in self._per_row()))

    @property
    def matrix(self) -> np.ndarray:
        """Per-mode map of (Y, Z), [[m, c], [q(m - 1), q c - s]]: shape (..., half, 2, 2)."""
        m, c, q, s = (x.real for x in (self.m, self.c, self.q, self.s))
        return np.stack([m, c, q * (m - 1.0), q * c - s], axis=-1).reshape(*m.shape, 2, 2)

    def start(self, u, psi, u_prev):
        """Spectral carry (u, u_prev, Y, Z, u_prev^p) of nodal rows; one without psi ignores it."""
        rfft = self.grid.rfft
        y = rfft(u)
        # Z seeds from psi, or else is the backward difference q (Y - V)
        z = 0.0 if self.has_psi.all() else self.q * (y - rfft(u_prev))
        if self.has_psi.any():
            z = np.where(self.has_psi[..., None], rfft(psi), z)
        return u, u_prev, y, z, _power(u_prev, self.power)

    def advance(self, carry):
        """One step of a spectral carry: one forward and one inverse transform."""
        u, _, y, z, up_prev = carry
        up = _power(u, self.power)
        w0, w1 = self.weights
        # in-place updates, in the order of the formulas: a batch holds
        # one temporary per array, not one per operation
        nl = w0 * up
        nl += w1 * up_prev
        y_new = self.m * y
        y_new += self.f * self.grid.rfft(nl)
        y_new += self.c * z
        z_new = y_new - y
        z_new *= self.q
        z_new -= self.s * z
        return self.grid.irfft(y_new), u, y_new, z_new, up

    def state(self, carry, step_index: int, row: int) -> SchemeState:
        """State of row ``row`` of a batched carry.

        u and u_prev are copied, so that a state kept after its run
        finishes does not hold on to the arrays of the whole batch.
        """
        u, u_prev, _, z, _ = (x[row] for x in carry)
        psi = self.grid.irfft(z) if self.has_psi[row] else None
        time = float(step_index * self.dt[row])
        return SchemeState(self.grid, step_index, time, u.copy(), psi, u_prev.copy())

    def step_arrays(self, u, *fields):
        """One step of nodal arrays.

        (u, psi, u_prev) -> (u_new, psi_new) with psi; (u, u_prev) -> u_new without.
        """
        psi, u_prev = fields if self.has_psi else (None, *fields)
        u_new, _, _, z, _ = self.advance(self.start(u, psi, u_prev))
        return (u_new, self.grid.irfft(z)) if self.has_psi else u_new


def ProposedStepper(grid: Grid, dt, power: int = 2) -> LinearStepper:
    """Stepper of the two-variable scheme: Y = U of u and Z = Q of psi.

    Every mode takes the same linear map plus the extrapolated
    nonlinearity:

        U' = a U + b rfft(1.5 u^p - 0.5 u_prev^p) + c Q
        Q' = (2/dt)(U' - U) - Q

    with lam = 2/dt^2 + (k^4 + k^2)/2, a = (2/dt^2 - (k^4 + k^2)/2)/lam,
    b = -k^2/lam and c = (2/dt)/lam.  At k = 0, a = 1, b = 0 and c = dt:
    the mean of u grows by dt times the mean of psi, which never changes.
    So q_0 = 0 and s_0 = -1 map Q_0 to itself exactly, where the formula
    would add the round-off of U_0' - U_0 to the mean of psi.
    """
    _check_power(power)
    column = _column(dt)
    k2 = grid.wavenumbers**2
    lam = build_implicit_diagonal(grid, column)
    a, b, c = 4.0 / column**2 / lam - 1.0, -k2 / lam, 2.0 / column / lam
    q = (2.0 / column) * (k2 > 0)
    s = np.where(k2 > 0, 1.0, -1.0)
    return LinearStepper(grid, power, dt, 1.5, -0.5, a, b, c, q, s, True)


def FrutosStepper(grid: Grid, dt) -> LinearStepper:
    """Stepper of the three-level reference scheme (p = 2): Y = U of u^n.

    With lam = 1/dt^2 + k^4/4 the scheme is, per mode,

        lam U' = (2U - V)/dt^2 - (k^4/4)(2U + V) - k^2 (U + rfft(u^2)),

    that is U' = alpha U + beta V + gamma rfft(u^2), with V the spectrum
    of u^{n-1}.  It is carried as (U, D) with D = (U - V)/dt, the backward
    difference, so U' = (alpha + beta) U + gamma rfft(u^2) - beta dt D and
    D' = (U' - U)/dt.  D is never reported: the scheme has no psi.
    """
    column = _column(dt)
    k2 = grid.wavenumbers**2
    k4 = k2**2
    lam = 1.0 / column**2 + 0.25 * k4
    alpha = (2.0 / column**2 - 0.5 * k4 - k2) / lam
    # beta = (-1/dt^2 - k^4/4)/lam is -lam/lam, exactly -1, so c = -beta dt = dt
    m, c = alpha - 1.0, column
    return LinearStepper(grid, 2, dt, 1.0, 0.0, m, -k2 / lam, c, 1.0 / column, 0.0, False)


def _check_run(scheme: str, dt, T, bootstrap_mode: str, power: int) -> int:
    """Steps of one run to time T: the one home of the rules a run must keep."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}: the schemes are {', '.join(SCHEMES)}")
    if bootstrap_mode not in ("exact", "self_start"):
        raise ValueError(f"unknown bootstrap mode {bootstrap_mode!r}")
    if scheme == "frutos" and power != 2:
        raise ValueError("the three-level reference scheme only supports p = 2")
    if scheme == "frutos" and bootstrap_mode != "exact":  # u^{-1} := u^0 would start it at rest
        raise ValueError(f"the three-level scheme needs the exact start, got {bootstrap_mode!r}")
    if not 0 <= T < np.inf:
        raise ValueError(f"final time must be nonnegative and finite, got {T}")
    _column(dt)
    steps = int(round(T / dt))
    if abs(steps * dt - T) > 1e-9 * max(T, dt):
        raise ValueError(f"final time {T} is not an integer multiple of dt={dt}")
    return steps


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
    _check_run("proposed", dt, 0.0, mode, problem.power)  # a start is a run of no steps
    if mode == "self_start":
        u_prev = problem.initial_u.copy()
    elif params is None:
        raise ValueError("exact bootstrap requires solitary-wave parameters")
    else:
        u_prev = solitary_wave(params, problem.grid.nodes, -dt)
    u, psi = problem.initial_u.copy(), problem.initial_ut.copy()
    return SchemeState(problem.grid, 0, 0.0, u, psi, u_prev)


def bootstrap_frutos(problem: GBProblem, dt: float, params: SolitaryWaveParams) -> SchemeState:
    """Initial state for the three-level scheme: the proposed scheme's exact start, with no psi."""
    _check_run("frutos", dt, 0.0, "exact", problem.power)
    return replace(bootstrap(problem, dt, "exact", params), psi_curr=None)


def run(
    problem: GBProblem,
    dt: float,
    T: float,
    scheme: str = "proposed",
    bootstrap_mode: str = "self_start",
    params: SolitaryWaveParams | None = None,
    observers=(),
    stride: int = 1,
) -> SchemeState:
    """Advance the problem to time T, watching for blow-up: a batch of one.

    Observers are callables invoked with the current state every ``stride``
    steps (and at step 0 and the final step); ``stride`` is an integer >= 1.
    On divergence the state at the blow-up step is returned, marked
    ``diverged``; nothing is raised.
    """
    return run_batch(problem, ((scheme, dt),), T, bootstrap_mode, params, observers, stride)[0]


def run_batch(
    problem: GBProblem,
    runs,
    T: float,
    bootstrap_mode: str = "self_start",
    params: SolitaryWaveParams | None = None,
    observers=(),
    stride: int = 1,
) -> tuple[SchemeState, ...]:
    """Advance every ``(scheme, dt)`` run of ``runs`` to time T, all together.

    The runs, of any scheme and step size, are the rows of one 2-D carry,
    so every step makes one forward and one inverse transform for them all.
    Each row's final state equals that of :func:`run` bit for bit, and the
    states come back in the order of ``runs``.  Observers see every row's
    state, as in :func:`run`; a row that diverges is dropped from the batch,
    and its state at the blow-up step is marked ``diverged``.
    """
    _check_integer(stride, 1, "observer stride")
    steps = [_check_run(scheme, dt, T, bootstrap_mode, problem.power) for scheme, dt in runs]
    states = [
        bootstrap_frutos(problem, dt, params) if scheme == "frutos"
        else bootstrap(problem, dt, bootstrap_mode, params)
        for scheme, dt in runs
    ]

    # ||u||_rms > ceiling  <=>  u.u > n * ceiling^2 for a row; a NaN or inf
    # fails the comparison "u.u <= limit" as well.  np.vdot sums over the
    # whole batch: no row can exceed the limit while the sum does not, so
    # the loop looks at single rows only when the sum fails.
    norm0 = float(np.sqrt(np.mean(problem.initial_u**2)))
    limit = problem.grid.num_points * (BLOWUP_FACTOR * max(norm0, 1.0)) ** 2

    for state in states:
        for obs in observers:
            obs(state)
    # a run of no steps ends where it starts
    results = [None if n else state for n, state in zip(steps, states)]
    rows = [i for i, n in enumerate(steps) if n]
    if not rows:
        return tuple(results)
    # each row's own stepper, built with its float dt, is a row of the batch's
    steppers = [
        FrutosStepper(problem.grid, dt) if scheme == "frutos"
        else ProposedStepper(problem.grid, dt, problem.power)
        for scheme, dt in (runs[i] for i in rows)
    ]
    stepper = LinearStepper(
        problem.grid, problem.power, *map(np.stack, zip(*(x._per_row() for x in steppers)))
    )
    live = [states[i] for i in rows]
    carry = stepper.start(
        np.stack([s.u_curr for s in live]),
        # a row without psi ignores the u that stands in for it
        np.stack([s.u_curr if s.psi_curr is None else s.psi_curr for s in live]),
        np.stack([s.u_prev for s in live]),
    )
    del states, live, steppers  # the carry holds copies
    # the next row to finish is the one with the fewest steps
    last = min(steps[i] for i in rows)
    for n in range(1, max(steps[i] for i in rows) + 1):
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
                results[i] = replace(stepper.state(carry, n, pos), diverged=True)
            elif watched or n == steps[i]:
                state = stepper.state(carry, n, pos)
                for obs in observers:
                    obs(state)
                if n == steps[i]:
                    results[i] = state
            keep.append(results[i] is None)
        if not all(keep):
            rows = [i for i, k in zip(rows, keep) if k]
            if not rows:
                break
            carry = tuple(x[keep] for x in carry)
            stepper, last = stepper.take(keep), min(steps[i] for i in rows)
    return tuple(results)
