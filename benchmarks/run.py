"""Benchmark of the boussinesq solver on four solitary-wave workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload spatial-ladder --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it times the workload, untraced, for ``--seconds``
seconds and reports the end-to-end metrics:

* ``pass_s``: median wall time of one pass of the workload;
* ``setup_s``: median time to import ``boussinesq`` and build every grid,
  exact initial state and stepper the workload needs;
* ``peak_rss_mb``: peak resident memory of this process.

Both times are median wall times rescaled to a reference host speed (see
``speed.py``); the unscaled times are kept in the result file under
``.bench_out/``.

Every pass is checked against its workload's gate (see ``workloads.py``);
the fail rate is ``failed / attempted`` in the result line.

With ``--trace 1`` it reports the per-layer metrics instead (see
``layers.py``): timed calls into each module, then rounds of one untraced
and one traced pass of every workload, for about ``--seconds`` seconds.
The per-layer list names metrics of all four workloads, so a traced run
covers them all whatever ``--workload`` says.  The spans go to
``.bench_out/``.

Before any timing the package's own ``verification.run_checks()`` runs
once; if a check fails, no timing is printed.  Everything runs in this one
process, on one thread; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# numpy must not start BLAS or OpenMP thread pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

from speed import REFERENCE_S, kernel_s  # noqa: E402
from workloads import WORKLOADS, check, domain_offset, run_pass, setup  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_package():
    """Import ``boussinesq`` from this checkout's ``src/``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        bq = importlib.import_module("boussinesq")
        importlib.import_module("boussinesq.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import boussinesq from {src}: {exc}")
    if not Path(bq.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: boussinesq was imported from {bq.__file__}, not {src}")
    return bq


def reimport_package():
    """Drop every ``boussinesq`` module and import the package again."""
    for name in [n for n in sys.modules if n == "boussinesq" or n.startswith("boussinesq.")]:
        del sys.modules[name]
    importlib.import_module("boussinesq.cli")
    return sys.modules["boussinesq"]


def machine_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def timed(workload, bq, offset, args, record) -> tuple[dict, int, int]:
    """Untraced passes for ``args.seconds``; the end-to-end metrics.

    Each pass is preceded by one setup (re-import and build) and one
    sample of the workload's host-speed kernel; one more sample follows
    the last pass.
    """
    passes, setups, kernels, failed = [], [], [], 0
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        start = time.perf_counter()
        bq = reimport_package()
        setup(bq, workload, offset)
        setups.append(time.perf_counter() - start)
        kernels.append(kernel_s(workload.name))
        start = time.perf_counter()
        out = run_pass(bq, workload, offset, OUT_DIR)
        passes.append(time.perf_counter() - start)
        problems = check(bq, workload, offset, out)
        if problems:
            failed += 1
            print(f"pass {len(passes)} failed: {'; '.join(problems)}", file=sys.stderr)
    kernels.append(kernel_s(workload.name))
    record.update(pass_wall_s=passes, setup_wall_s=setups, kernel_s=kernels)
    reference = REFERENCE_S[workload.name]
    pass_s = [2 * reference * p / (a + b) for p, a, b in zip(passes, kernels, kernels[1:])]
    setup_s = [reference * s / k for s, k in zip(setups, kernels)]
    metrics = {
        "pass_s": (statistics.median(pass_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(passes), failed


def traced(bq, offset, args, record) -> tuple[dict, int, int]:
    """Timed module calls, then traced rounds for ``args.seconds``."""
    from layers import metric_units, micro, traced_round
    from tracing import Tracer

    start = time.perf_counter()
    tracer = Tracer()
    values = micro(bq, offset)
    rounds, attempted, failed = [], 0, 0
    round_s = 0.0
    while not rounds or time.perf_counter() + round_s < start + args.seconds:
        began = time.perf_counter()
        out, tried, bad = traced_round(
            bq, offset, OUT_DIR, tracer, len(rounds) % 2 == 1
        )
        round_s = time.perf_counter() - began
        rounds.append(out)
        attempted += tried
        failed += bad
    for key in rounds[0]:
        values[key] = statistics.median(r[key] for r in rounds)
    spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
    tracer.dump(spans)
    record.update(rounds=len(rounds), spans=str(spans.relative_to(ROOT)))
    units = metric_units()
    if set(values) != set(units):
        raise SystemExit(f"error: per-layer metrics differ from the list: {set(values) ^ set(units)}")
    return {k: (values[k], units[k]) for k in units}, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    offset = domain_offset(args.seed)
    bq = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "offset": offset,
        "trace": args.trace,
        "machine": machine_record(),
    }
    failing = [name for name, ok in bq.verification.run_checks() if not ok]
    if failing:
        print(f"preflight failed: {', '.join(failing)}; no timing reported", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    run = traced if args.trace else lambda *a: timed(workload, *a)
    metrics, attempted, failed = run(bq, offset, args, record)
    record["machine"]["loadavg_end"] = list(os.getloadavg())
    record["attempted"], record["failed"] = attempted, failed
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    rounds = f" rounds={record['rounds']}" if "rounds" in record else ""
    print(
        f"# {workload.name} seed={args.seed} offset={offset} trace={args.trace}{rounds} "
        f"machine={json.dumps(record['machine'])}"
    )
    samples = {"pass_s": f"(n={attempted})", "setup_s": f"(n={attempted})"}
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:14.6g} {unit:6s} {samples.get(key, '')}".rstrip())
    if "pass_wall_s" in record:
        wall = statistics.median(record["pass_wall_s"])
        print(f"{'pass_wall_s (unscaled, not gated)':44s} {wall:14.6g} {'s':6s} (n={attempted})")
    print(f"{'fail_rate':44s} {failed / attempted:14.6g} {'ratio':6s} (n={attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
