"""Time integration for the good Boussinesq equation.

Two schemes are provided:

* the proposed two-variable scheme: Crank-Nicolson on the linear part of
  the (u, psi) system with an Adams-Bashforth (3/2, -1/2) extrapolation of
  the nonlinear term, solved mode-by-mode in Fourier space;
* the classical three-level scheme of de Frutos/Ortega/Sanz-Serna, kept
  as the stability-comparison baseline.

Both implicit solves are diagonal in Fourier space, so both schemes are
one :class:`LinearStepper` with their own coefficients: it carries the
rfft half-spectra of the state and of u^2 at this step and the last, maps
every mode by the same 2x2 linear update in delta form plus a forcing by
both spectra of u^2, and makes one inverse transform of the grid per step,
of the new state, and one forward, of its u^2 (:meth:`Grid.inverse`,
:meth:`Grid.forward`).  Mode 0 of that spectrum is the sum of u^2, which
the blow-up check reads.
A batch stacks the steppers of every run on one grid, of any scheme and
step size, as the rows of one carry, so those runs share every call of a
step; a stack of one is its run's own stepper.  Only a step sees a stack:
each run starts, and is read from its row, through its own stepper.  The
carry is in the layout the grid's pair reads and writes: nodal rows
(rows, n) and real spectra (rows, 2h), each mode's Re and Im side by side,
and a lone run's 1-D (n,) and (2h,).  The pair writes into buffers the
stepper owns, so a step allocates no array.  The pair takes the grid's one
of three paths (see :mod:`boussinesq.spectral`): on a dense grid a lone row
is one ``np.dot`` and each row of a stack its own (1, n) product in one
``np.matmul``; a two-stage grid runs its one-row plan over the rows in turn;
any other grid calls numpy's FFT.  Each gives a row the bits of a run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spectral import Grid, _aligned, _check_integer, _check_real
from .waves import GBProblem, SolitaryWaveParams

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


def build_implicit_diagonal(grid: Grid, dt: float) -> np.ndarray:
    """Fourier symbol of the implicit operator on the half spectrum: 2/dt^2 + (k^4 + k^2)/2.

    Every entry is positive for any grid and any step that :func:`_check_dt`
    accepts, which is what makes the proposed scheme unconditionally
    solvable.
    """
    k2 = grid.wavenumbers**2
    return 2.0 / _check_dt(dt) ** 2 + 0.5 * (k2**2 + k2)


def _check_dt(dt) -> np.ndarray:
    """The one rule for a step size: one positive real whose dt^2 and 1/dt^2 are finite."""
    _check_real(dt, "time step")
    step = np.asarray(dt, dtype=float)
    if not 0 < step < np.inf:
        raise ValueError(f"time step must be positive and finite, got {dt}")
    with np.errstate(all="ignore"):
        square = step**2
        if not np.isfinite(4.0 / square):
            raise ValueError(f"time step too small: 1/dt^2 overflows, got dt = {dt}")
    if not np.isfinite(square):
        raise ValueError(f"time step too large: dt^2 overflows, got dt = {dt}")
    return step  # as an array, step**2 rounds as step*step does; a float's pow can be an ulp off


class LinearStepper:
    """Precomputed-plan stepper for a scheme that is linear in each mode.

    The state is carried as two rfft half-spectra: Y of u, and Z, which is
    that of psi if the run has psi (``has_psi``), and as the spectra
    F = rfft(u^2) and F_prev = rfft(u_prev^2) of the nonlinearity at this
    step and the one before.  Every mode takes a step in delta form,

        dY = m' Y + f0 F + f1 F_prev + c Z
        Y' = Y + dY
        Z' = q dY - s Z

    with m' = m - 1 stored as computed directly, never as the difference of
    two numbers near 1 that q ~ 2/dt would amplify (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 2), so the linear part of a step
    is :attr:`matrix`.  The nonlinearity's weights w0 and w1 of u^2 and
    u_prev^2 are folded into the coefficients f0 = w0 f and f1 = w1 f:
    rfft is linear, so F_prev is the F of the step before and a step makes
    one forward transform, of u'^2.  A builder makes the stepper of one run,
    for one float ``dt``; a batch is :meth:`stack` of its rows' steppers, a
    run per row of the carry, with per-row coefficients that mix schemes.
    Only :meth:`advance` steps a stack: :meth:`start`, :meth:`state` and
    :meth:`step_arrays` take a one-run stepper, which reads its own row of a
    batch's carry.

    Everything is held in the layout of :meth:`Grid.forward`: nodal rows
    are (rows, n), and the spectra and the coefficients m, f0, f1, c, q, s
    are real (rows, 2h), each mode's coefficient beside both its Re and Im.
    A one-run stepper drops the rows axis: its arrays are 1-D.  A real
    coefficient times each part gives the bits of the complex product
    (a + 0i)(x + iy).  On a dense grid a lone row transforms by one
    ``np.dot`` and a stack by one ``np.matmul`` of (1, n) rows, which give
    a row the same bits, so a row of a batch steps bit for bit as it would
    alone: one 2-D product over all rows is faster from two rows on, but
    its last bits differ from a row's own.  Both transforms write into the
    stepper's buffers, so a step allocates no array.
    """

    def __init__(self, grid: Grid, dt, m, f0, f1, c, q, s, has_psi):
        """Coefficients broadcast to (2h,) per run: a number, or a value per Re and Im slot."""
        self.grid = grid
        self.dt = dt
        rows = np.shape(dt)
        self.has_psi = np.full(rows, has_psi, dtype=bool)
        layout = rows + (2 * (grid.half_modes + 1),)
        self.m, self.f0, self.f1, self.c, self.q, self.s = (
            np.full(layout, x, dtype=float) for x in (m, f0, f1, c, q, s)
        )
        # what a step reads, bound once per stepper
        self._step = (self.m, self.f0, self.f1, self.c, self.q, self.s, grid.forward,
                      grid.inverse)

    @classmethod
    def stack(cls, steppers) -> LinearStepper:
        """The batch of one-run ``steppers`` of one grid, in order; a stack of one is itself."""
        if len({x.grid for x in steppers}) != 1:
            raise ValueError("a batch stacks one or more steppers of one grid")
        if len(steppers) == 1:
            return steppers[0]
        rows = [(x.dt, x.m, x.f0, x.f1, x.c, x.q, x.s, x.has_psi) for x in steppers]
        return cls(steppers[0].grid, *map(np.stack, zip(*rows)))

    @property
    def matrix(self) -> np.ndarray:
        """Per-mode map of (Y, Z), [[1 + m', c], [q m', q c - s]]: shape (..., half, 2, 2)."""
        m, c, q, s = (x[..., ::2] for x in (self.m, self.c, self.q, self.s))
        return np.stack([1.0 + m, c, q * m, q * c - s], axis=-1).reshape(*m.shape, 2, 2)

    def start(self, u, psi, u_prev):
        """Spectral carry (u, u_prev, Y, Z, F, F_prev) of a one-run stepper's nodal arrays (n,).

        Z is the spectrum of psi if the run has psi, else the backward
        difference q (Y - V); a run without psi ignores ``psi``.  F and
        F_prev are the spectra of u^2 and u_prev^2, which later steps carry.
        """
        has_psi, forward = self._one_run(), self.grid.forward
        y = forward(u)
        z = forward(psi) if has_psi else self.q * (y - forward(u_prev))
        return u, u_prev, y, z, forward(u**2), forward(u_prev**2)

    @cached_property
    def _buffers(self) -> list[tuple[np.ndarray, ...]]:
        """Two sets of the step's outputs (Y', Z', F', u') and temporaries, 64-byte aligned.

        A step writes every result into the set its carry does not hold.
        """
        rows, n, spectral = np.shape(self.dt), self.grid.num_points, self.m.shape[-1]
        return [tuple(_aligned(rows + (k,)) for k in (spectral,) * 4 + (n, n)) for _ in "ab"]

    def advance(self, carry):
        """One step of a spectral carry: one inverse transform of Y' and one forward of u'^2.

        Y', Z', F' and u' are written into buffers of the stepper, which the
        step after next writes again: a carry is good for one advance.  The
        step allocates no array.  F'[..., 0], the Re of mode 0, is the sum
        of u'^2 over the row: :func:`run_batch` watches it for blow-up.
        """
        u, _, y, z, f, f_prev = carry
        m, f0, f1, c, q, s, forward, inverse = self._step
        a, b = self._buffers
        y_new, z_new, f_new, spectral, u_new, square = b if y is a[0] else a
        # in the order of the formulas; out= is the third argument.  dY is
        # formed in z_new, which q dY - s Z then overwrites
        mul = np.multiply
        mul(m, y, z_new)
        mul(f0, f, spectral)
        z_new += spectral
        mul(f1, f_prev, spectral)
        z_new += spectral
        mul(c, z, spectral)
        z_new += spectral
        np.add(y, z_new, y_new)
        z_new *= q
        mul(s, z, spectral)
        z_new -= spectral
        inverse(y_new, u_new)
        mul(u_new, u_new, square)
        return u_new, u, y_new, z_new, forward(square, f_new), f

    def state(self, carry, step_index: int) -> SchemeState:
        """State of a one-run stepper's carry, or of its run's row view of a batch's carry.

        u and u_prev are copied, so that a state kept after its run
        finishes holds neither the stepper's buffers nor the whole batch.
        """
        u, u_prev, _, z, *_ = carry
        psi = self.grid.inverse(z) if self._one_run() else None
        return SchemeState(self.grid, step_index, float(step_index * self.dt), u.copy(), psi,
                           u_prev.copy())

    def step_arrays(self, u, *fields):
        """One step of a one-run stepper's 1-D nodal arrays, returned as new arrays.

        (u, psi, u_prev) -> (u_new, psi_new) with psi; (u, u_prev) -> u_new without.
        Kept for ``benchmarks/`` until ROADMAP direction 3.
        """
        has_psi = self._one_run()
        psi, u_prev = fields if has_psi else (None, *fields)
        arrays = (x if x is None else np.ascontiguousarray(x, float) for x in (u, psi, u_prev))
        u_new, _, _, z, *_ = self.advance(self.start(*arrays))
        return (u_new.copy(), self.grid.inverse(z)) if has_psi else u_new.copy()

    def _one_run(self) -> bool:
        """Whether a one-run stepper's run has psi; a stack only advances."""
        if self.has_psi.ndim:
            raise ValueError("step_arrays steps a one-run stepper, and start and state read one")
        return bool(self.has_psi)


def ProposedStepper(grid: Grid, dt, power: int = 2) -> LinearStepper:
    """Stepper of the two-variable scheme: Y = U of u and Z = Q of psi.

    Every mode takes the same linear map plus the extrapolated
    nonlinearity, in delta form:

        dU = m' U + 1.5 b F - 0.5 b F_prev + c Q,   U' = U + dU
        Q' = (2/dt) dU - Q

    with F and F_prev the spectra of u^2 and u_prev^2,
    lam = 2/dt^2 + (k^4 + k^2)/2, m' = -(k^4 + k^2)/lam, b = -k^2/lam and
    c = (2/dt)/lam.  m' is a - 1 for the a = (2/dt^2 - (k^4 + k^2)/2)/lam
    of U' = a U + ..., formed directly: a's rounding, left in a - 1, would
    reach Q' times 2/dt.  At k = 0, m' = 0, b = 0 and c = dt: the mean of u
    grows by dt times the mean of psi, which never changes.  So q_0 = 0 and
    s_0 = -1 map Q_0 to itself exactly, where the formula would add the
    round-off of dU_0 to the mean of psi.
    ``power`` must be 2: the parameter is there for ``benchmarks/`` until ROADMAP direction 3.
    """
    if power != 2:
        raise ValueError(f"the equation is p = 2, got power {power!r}")
    # each mode's value for its Re and its Im slot
    lam = np.repeat(build_implicit_diagonal(grid, dt), 2)  # the real rule refuses a 0-d dt
    dt = _check_dt(dt)
    k2 = np.repeat(grid.wavenumbers**2, 2)
    m, b, c = -(k2**2 + k2) / lam, -k2 / lam, 2.0 / dt / lam
    q = (2.0 / dt) * (k2 > 0)
    s = np.where(k2 > 0, 1.0, -1.0)
    return LinearStepper(grid, dt, m, 1.5 * b, -0.5 * b, c, q, s, True)


def FrutosStepper(grid: Grid, dt) -> LinearStepper:
    """Stepper of the three-level reference scheme: Y = U of u^n.

    With lam = 1/dt^2 + k^4/4 the scheme is, per mode,

        lam U' = (2U - V)/dt^2 - (k^4/4)(2U + V) - k^2 (U + F),

    that is U' = alpha U + beta V + gamma F, with V the spectrum of u^{n-1}
    and F that of u^2.  It is carried as (U, D) with D = (U - V)/dt, the
    backward difference.  beta = (-1/dt^2 - k^4/4)/lam is -lam/lam,
    exactly -1, so in delta form dU = m' U + gamma F + dt D, U' = U + dU
    and D' = dU/dt, with m' = alpha - 2 = -(k^4 + k^2)/lam formed directly.
    The scheme has no u_prev^2 term, and D is never reported: it has no psi.
    """
    dt = _check_dt(dt)
    k2 = np.repeat(grid.wavenumbers**2, 2)  # each mode's value for its Re and its Im slot
    k4 = k2**2
    lam = 1.0 / dt**2 + 0.25 * k4
    return LinearStepper(grid, dt, -(k4 + k2) / lam, -k2 / lam, 0.0, dt, 1.0 / dt, 0.0, False)


def _check_run(scheme: str, dt, T, bootstrap_mode: str) -> int:
    """Steps of one run to time T: the one home of the rules a run must keep."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}: the schemes are {', '.join(SCHEMES)}")
    if bootstrap_mode not in ("exact", "self_start"):
        raise ValueError(f"unknown bootstrap mode {bootstrap_mode!r}")
    if scheme == "frutos" and bootstrap_mode != "exact":  # u^{-1} := u^0 would start it at rest
        raise ValueError(f"the three-level scheme needs the exact start, got {bootstrap_mode!r}")
    _check_real(T, "final time")
    if not 0 <= T < np.inf:
        raise ValueError(f"final time must be nonnegative and finite, got {T}")
    _check_dt(dt)
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
    takes u^{-1} := u^0, degrading the first extrapolation to (u^0)^2 -- a
    one-step O(dt^2) local loss that leaves the global order intact.
    ``exact`` samples the wave ``params`` at t = -dt and is used for
    reference runs.
    """
    _check_run("proposed", dt, 0.0, mode)  # a start is a run of no steps
    if mode == "self_start":
        u_prev = problem.initial_u.copy()
    elif params is None:
        raise ValueError("exact bootstrap requires solitary-wave parameters")
    else:
        u_prev = params.fields(problem.grid.nodes, -dt)[0]
    u, psi = problem.initial_u.copy(), problem.initial_ut.copy()
    return SchemeState(problem.grid, 0, 0.0, u, psi, u_prev)


def bootstrap_frutos(problem: GBProblem, dt: float, params: SolitaryWaveParams) -> SchemeState:
    """Initial state for the three-level scheme: the proposed scheme's exact start, with no psi."""
    _check_run("frutos", dt, 0.0, "exact")
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

    The runs, of any scheme and step size, are the rows of one carry,
    so every step makes one forward and one inverse transform for them all;
    a row blows up when the sum of its u^2, read from the carried spectrum
    of u^2, is not finite or passes n (1e6 max(rms of initial u, 1))^2.
    Each row's final state equals that of :func:`run` bit for bit, and the
    states come back in the order of ``runs``.  Observers see every row's
    state, as in :func:`run`; a row that diverges is dropped from the batch,
    and its state at the blow-up step is marked ``diverged``.  Initial data
    that is not finite, or a u too large to watch for blow-up, is a
    ``ValueError`` raised before any observer sees a state.
    """
    _check_integer(stride, 1, "observer stride")
    runs = tuple(runs)
    steps = [_check_run(scheme, dt, T, bootstrap_mode) for scheme, dt in runs]

    # ||u||_rms > ceiling  <=>  sum u^2 > n * ceiling^2 for a row; a NaN or inf
    # fails the comparison "sum u^2 <= limit" as well.  The Re of mode 0 of
    # the carry's F = forward(u^2) is sum u^2, so a step reads it: one value
    # of a lone row, and one sum over the rows of a stack.  No row can
    # exceed the limit while that sum does not, so the loop looks at single
    # rows only when the sum fails.
    with np.errstate(over="ignore", invalid="ignore"):
        norm0 = np.sqrt(np.mean(problem.initial_u**2))
        limit = problem.grid.num_points * (BLOWUP_FACTOR * max(norm0, 1.0)) ** 2
    if not np.isfinite(limit):
        raise ValueError("initial u must be finite, with an rms small enough to watch for "
                         f"blow-up; got rms {norm0:.3g}")
    if not np.all(np.isfinite(problem.initial_ut)):
        raise ValueError("initial u_t must be finite")

    states = [
        bootstrap_frutos(problem, dt, params) if scheme == "frutos"
        else bootstrap(problem, dt, bootstrap_mode, params)
        for scheme, dt in runs
    ]
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
        else ProposedStepper(problem.grid, dt)
        for scheme, dt in (runs[i] for i in rows)
    ]
    live = [states[i] for i in rows]
    # each row starts with its own stepper; a lone row keeps its 1-D carry
    carry = [x.start(s.u_curr, s.psi_curr, s.u_prev) for x, s in zip(steppers, live)]
    carry = carry[0] if len(rows) == 1 else tuple(map(np.stack, zip(*carry)))
    advance = LinearStepper.stack(steppers).advance
    del states, live  # the carry holds what a step reads
    # the next row to finish is the one with the fewest steps
    last = min(steps[i] for i in rows)
    # a row that blows up can overflow within a step, which the check flags:
    # the steps run without numpy's warnings, and observers under the caller's
    caller = np.geterr()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, max(steps[i] for i in rows) + 1):
            carry = advance(carry)
            f = carry[4]
            bounded = (f[0] if f.ndim == 1 else f[:, 0].sum()) <= limit
            watched = observers and n % stride == 0
            if bounded and n < last and not watched:
                continue
            # a row diverged, finishes or is observed: look at the rows one by one,
            # each through its own stepper, from a view of its row of the carry
            views = zip(*(x.reshape(len(rows), -1) for x in carry))
            keep = []
            for i, stepper, row in zip(rows, steppers, views):
                if not (bounded or row[4][0] <= limit):
                    results[i] = replace(stepper.state(row, n), diverged=True)
                elif watched or n == steps[i]:
                    state = stepper.state(row, n)
                    with np.errstate(**caller):
                        for obs in observers:
                            obs(state)
                    if n == steps[i]:
                        results[i] = state
                keep.append(results[i] is None)
            if not all(keep):
                rows = [i for i, k in zip(rows, keep) if k]
                if not rows:
                    break
                lone = keep.index(True) if len(rows) == 1 else keep
                carry = tuple(x[lone] for x in carry)
                steppers = [x for x, k in zip(steppers, keep) if k]
                advance = LinearStepper.stack(steppers).advance
                last = min(steps[i] for i in rows)
    return tuple(results)
