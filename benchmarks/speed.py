"""Host-speed calibration, so that timings from a shared machine compare.

On a shared 2-core host the speed of the same code drifts over minutes
and flips between a fast and a slow state every few seconds, so the
median wall time of a 25 s run moves with the neighbours' load more than
with the code.  A yardstick kernel, timed right before every measured
pass and once after the last, tracks that drift: a pass's time is
reported as ``wall * REFERENCE_S[workload] / kernel``, with ``kernel``
the mean of the two samples around it, that is, the time the pass would
have taken on a host where the kernel takes ``REFERENCE_S[workload]``.

Contention slows Python-bound and FFT-bound code by different amounts, so
each workload has its own kernel: the solver's step loop as it stood when
the benchmark was written, frozen here, on that workload's grids.  The
kernels use only numpy and this file, so a change to the package cannot
move them.

On a shared 2-core x86-64 VM (Python 3.11, numpy 2.4) the quartile spread
of ten runs' median pass time, as a share of their median, was 12-26% in
raw wall time and 4-7% rescaled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

LENGTH = 80.0


@dataclass(frozen=True)
class _State:
    u: np.ndarray
    psi: np.ndarray
    u_prev: np.ndarray
    step: int


def _plan(N: int, dt: float):
    n = 2 * N + 1
    k2 = (2 * np.pi * np.fft.fftfreq(n, d=1.0 / n).round() / LENGTH) ** 2
    x = -LENGTH / 2 + LENGTH / n * np.arange(n)
    u = -0.5 / np.cosh(0.29 * x) ** 2
    return n, dt, k2, u


def _proposed(plan, steps: int, observe=None) -> None:
    """The proposed scheme's step and run loop."""
    n, dt, k2, u0 = plan
    lam = 2.0 / dt**2 + 0.5 * (k2**2 + k2)
    explicit = -0.5 * (k2**2 + k2)
    state = _State(u0, np.zeros(n), u0, 0)
    for _ in range(steps):
        u, psi = state.u, state.psi
        nl_hat = np.fft.fft(1.5 * u**2 - 0.5 * state.u_prev**2) / n
        u_hat = np.fft.fft(u) / n
        psi_hat = np.fft.fft(psi) / n
        rhs = -k2 * nl_hat + explicit * u_hat + (2.0 / dt**2) * u_hat + (2.0 / dt) * psi_hat
        u_new = np.fft.ifft(rhs / lam * n).real
        psi_mean = np.mean(psi)
        u_new += (np.mean(u) + dt * psi_mean) - np.mean(u_new)
        psi_new = 2.0 * (u_new - u) / dt - psi
        psi_new += psi_mean - np.mean(psi_new)
        state = _State(u_new, psi_new, u, state.step + 1)
        if not np.all(np.isfinite(u_new)) or float(np.sqrt(np.mean(u_new**2))) > 1e6:
            break
        if observe is not None:
            observe(plan, state)


def _frutos(plan, steps: int) -> None:
    """The three-level scheme's step and run loop."""
    n, dt, k2, u0 = plan
    lam = 1.0 / dt**2 + 0.25 * k2**2
    u, u_prev = u0, u0
    for _ in range(steps):
        u_hat, prev_hat = np.fft.fft(u) / n, np.fft.fft(u_prev) / n
        sq_hat = np.fft.fft(u * u) / n
        rhs = (
            (2.0 * u_hat - prev_hat) / dt**2
            - 0.25 * k2**2 * (2.0 * u_hat + prev_hat)
            - k2 * (u_hat + sq_hat)
        )
        u, u_prev = np.fft.ifft(rhs / lam * n).real, u
        if not np.all(np.isfinite(u)) or float(np.sqrt(np.mean(u**2))) > 1e6:
            break


def _error_norms(plan, state: _State) -> None:
    """What the observed-soliton observer does: norms through real FFTs."""
    n, _, k2, u0 = plan
    k_half = np.sqrt(k2[: n // 2 + 1])
    err = state.u - u0
    for order in (2, 2, 1):
        np.fft.irfft(np.fft.rfft(err) * (1j * k_half) ** order, n=n)
    float(np.sqrt(np.dot(err, err) / n))
    float(np.sum(state.u))
    int(np.argmin(state.u))


def _observed(plan, steps: int) -> None:
    _proposed(plan, steps, observe=_error_norms)


# workload -> [(loop, plan, steps)]: about a tenth of a pass; the longer
# the kernel, the less its own noise shows in the rescaled times
_KERNELS = {
    "spatial-ladder": [(_proposed, _plan(N, 1e-4), 400) for N in (32, 64, 96, 128)],
    "temporal-ladder": [(_proposed, _plan(512, 4e-3), 520)],
    "stability-ladder": [
        (loop, _plan(N, 0.1), 90) for loop in (_proposed, _frutos) for N in (64, 128, 256, 512)
    ],
    "observed-soliton": [(_observed, _plan(2048, 4e-3), 32)],
}


# workload -> the kernel's time (s) on a quiet 2-core x86-64 VM, roughly
REFERENCE_S = {
    "spatial-ladder": 0.3,
    "temporal-ladder": 0.15,
    "stability-ladder": 0.15,
    "observed-soliton": 0.15,
}


def kernel_s(workload: str) -> float:
    """Wall time of the workload's yardstick kernel."""
    start = time.perf_counter()
    for loop, plan, steps in _KERNELS[workload]:
        loop(plan, steps)
    return time.perf_counter() - start
