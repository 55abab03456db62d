"""CSV serialization of sweep results and emission of companion plot scripts.

The CSV has one column per :class:`SweepRow` field, in declaration order.
A float column's value, of any numeric type, is written as the ``repr`` of
a Python float, its shortest round-trip decimal form, so parsing an
emitted file recovers every value bit-exactly.
"""

from __future__ import annotations

import dataclasses
import typing
import warnings

from .sweeps import SweepResult, SweepRow

__all__ = ["CSV_HEADER", "write_csv", "read_csv", "emit_plot_script"]

def _read_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"expected true or false, got {cell!r}")
    return cell == "true"


# how a cell of each SweepRow field type is written and read back
_WRITE = {
    str: str,
    int: str,
    float: lambda value: repr(float(value)),
    bool: lambda value: "true" if value else "false",
}
_READ = {str: str, int: int, float: float, bool: _read_bool}

_HINTS = typing.get_type_hints(SweepRow)
_COLUMNS = tuple((field.name, _HINTS[field.name]) for field in dataclasses.fields(SweepRow))

CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def write_csv(result: SweepResult, path) -> None:
    """Write one sweep to CSV; temporal sweeps end with the psi and H2 fitted-order comments."""
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(",".join(_WRITE[typ](getattr(row, name)) for name, typ in _COLUMNS))
    if result.fitted_orders is not None:
        lines.append(f"# fitted_order={result.fitted_orders['err_psi_l2']!r}")
        lines.append(f"# fitted_order_u_h2={result.fitted_orders['err_u_h2']!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> list[SweepRow]:
    """Parse a file produced by :func:`write_csv` back into rows.

    A row with the wrong number of cells, or a cell its column's type
    cannot parse (bools are ``true`` or ``false`` only), raises
    ``ValueError`` naming the path, line and column.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if len(cells) != len(_COLUMNS):
                raise ValueError(f"{path}, line {lineno}: {len(cells)} cells, not {len(_COLUMNS)}")
            values = []
            for (name, typ), cell in zip(_COLUMNS, cells):
                try:
                    values.append(_READ[typ](cell))
                except ValueError as exc:
                    raise ValueError(f"{path}, line {lineno}, column {name}: {exc}") from None
            rows.append(SweepRow(*values))
    return rows


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python
"""Plot the error norms from {csv_name} (auto-generated)."""
import csv

import matplotlib.pyplot as plt

ns, nks, err_psi, err_u = [], [], [], []
with open({csv_name!r}) as fh:
    for row in csv.DictReader(r for r in fh if not r.startswith("#")):
        if row["diverged"] == "true":
            continue
        ns.append(int(row["N"]))
        nks.append(int(row["K"]))
        err_psi.append(float(row["err_psi_l2"]))
        err_u.append(float(row["err_u_h2"]))

fig, ax = plt.subplots()
{body}
ax.legend()
ax.grid(True, which="both", alpha=0.3)
fig.savefig({png_name!r}, dpi=150)
print("wrote", {png_name!r})
'''

_TEMPORAL_BODY = '''\
ax.loglog(nks, err_psi, "o-", label="L2 error of psi")
ax.loglog(nks, err_u, "s-", label="H2 error of u")
guide = [err_u[0] * (nks[0] / nk) ** 2 for nk in nks]
ax.loglog(nks, guide, "k--", label="C * NK^-2 guide")
ax.set_xlabel("number of time steps")
ax.set_ylabel("error at final time")'''

_SPATIAL_BODY = '''\
ax.semilogy(ns, err_psi, "o-", label="L2 error of psi")
ax.semilogy(ns, err_u, "s-", label="H2 error of u")
ax.set_xlabel("N (half mode count)")
ax.set_ylabel("error at final time")'''


def emit_plot_script(result: SweepResult, path, csv_name: str) -> None:
    """Write a standalone matplotlib script next to an already-written CSV.

    The script references the CSV by relative name and is a convenience
    artifact only.
    """
    if not result.rows:
        warnings.warn("empty sweep result; no plot script written", stacklevel=2)
        return
    body = _TEMPORAL_BODY if result.spec.kind == "temporal" else _SPATIAL_BODY
    png_name = csv_name.rsplit(".", 1)[0] + ".png"
    script = _PLOT_TEMPLATE.format(csv_name=csv_name, body=body, png_name=png_name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)
