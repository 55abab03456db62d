"""Structural guard: the grid's own pair is the package's one transform path.

Every spectral operator transforms through ``Grid.forward``/``Grid.inverse``,
which ``Grid.rfft``/``Grid.irfft`` adapt to numpy's layout, so numpy's FFT
module may be named only inside those two methods.
"""

import ast
from pathlib import Path

import boussinesq

PACKAGE = Path(boussinesq.__file__).resolve().parent


class _FftReferences(ast.NodeVisitor):
    """Qualified names of the scopes that reference numpy's fft module."""

    def __init__(self):
        self.scope, self.found = [], []

    def _note(self):
        self.found.append(".".join(self.scope) or "<module>")

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Attribute(self, node):
        if node.attr == "fft" and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy"):
                self._note()
        self.generic_visit(node)

    def visit_Import(self, node):
        if any(alias.name.startswith("numpy.fft") for alias in node.names):
            self._note()

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if module.startswith("numpy.fft") or (
            module == "numpy" and any(alias.name == "fft" for alias in node.names)
        ):
            self._note()


def fft_references(source: str) -> list[str]:
    visitor = _FftReferences()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_detector_sees_every_spelling():
    source = (
        "import numpy.fft\n"
        "from numpy import fft\n"
        "from numpy.fft import rfft\n"
        "class A:\n"
        "    def f(self):\n"
        "        return numpy.fft.fft\n"
        "def g():\n"
        "    return np.fft.ifft\n"
    )
    assert fft_references(source) == ["<module>", "<module>", "<module>", "A.f", "g"]


def test_numpy_fft_only_inside_the_grid_pair():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for scope in fft_references(path.read_text()):
            found.setdefault(f"{path.name}:{scope}", 0)
            found[f"{path.name}:{scope}"] += 1
    assert set(found) == {"spectral.py:Grid.forward", "spectral.py:Grid.inverse"}, found
