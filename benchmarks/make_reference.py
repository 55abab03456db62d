"""Write ``reference.json``: the spatial-ladder rows above the error floor.

For every domain offset a seed can select, it runs the spatial-ladder pass
and keeps, for each error norm, the rows before the first one within 5x of
the smallest error, plus that smallest error.  The spatial-ladder gate
compares those rows by value, because the rows at the floor are round-off
that a correct rewrite moves.

The file was written from the commit that introduced the benchmark.  It is
the reference later code is held to, so regenerate it only when the
workload itself changes, never to absorb a change in the solver's output.

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json

from run import OUT_DIR, import_package
from workloads import (
    ERRORS,
    OFFSET_COUNT,
    REFERENCE_PATH,
    WORKLOADS,
    check,
    domain_offset,
    floor_rows,
    run_pass,
)


def main() -> None:
    bq = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS["spatial-ladder"]
    reference = {}
    for seed in range(OFFSET_COUNT):
        offset = domain_offset(seed)
        out = run_pass(bq, workload, offset, OUT_DIR)
        entry = {}
        for key in ERRORS:
            errs = [getattr(r, key) for r in out["rows"]]
            above = out["rows"][: floor_rows(errs)]
            entry[key] = {
                "N": [r.N for r in above],
                "err": [getattr(r, key) for r in above],
                "floor": min(errs),
            }
        reference[repr(offset)] = entry
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for seed in range(OFFSET_COUNT):
        offset = domain_offset(seed)
        out = run_pass(bq, workload, offset, OUT_DIR)
        print(offset, check(bq, workload, offset, out) or "ok")


if __name__ == "__main__":
    main()
