"""The package's public surface: what the benchmark calls exists, and nothing exported is dead.

The call and use tests read source with ``ast`` rather than running it: the
benchmark's call sites in ``benchmarks/workloads.py`` and
``benchmarks/layers.py``, and the uses of every ``__all__`` name across
``src/`` and ``benchmarks/`` (a name that only tests or demos call is dead).
The method calls on what the benchmark builds are run, since ``ast`` cannot
tell what they bind to.
Public names live in their modules only: the package namespace holds
nothing but its submodules.
"""

import ast
import functools
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "boussinesq"
BENCHMARK_FILES = ("workloads.py", "layers.py")


def benchmark_calls() -> list[tuple[str, str, str, int, list[str]]]:
    """(where, module, name, positional count, keywords) of every ``bq.<module>.<name>(...)``."""
    calls = []
    for filename in BENCHMARK_FILES:
        tree = ast.parse((ROOT / "benchmarks" / filename).read_text())
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "bq"
            ):
                keywords = [k.arg for k in node.keywords]
                where = f"{filename}:{node.lineno}"
                calls.append((where, func.value.attr, func.attr, len(node.args), keywords))
    return calls


BENCHMARK_CALLS = benchmark_calls()


def test_benchmark_calls_are_found():
    called = {(module, name) for _, module, name, _, _ in BENCHMARK_CALLS}
    assert {("stepping", "run"), ("waves", "solitary_wave"), ("cli", "main")} <= called


@pytest.mark.parametrize(
    "where, module, name, positional, keywords",
    BENCHMARK_CALLS,
    ids=[f"{w}-{m}.{n}" for w, m, n, _, _ in BENCHMARK_CALLS],
)
def test_benchmark_call_binds(where, module, name, positional, keywords):
    target = getattr(importlib.import_module(f"boussinesq.{module}"), name, None)
    assert target is not None, f"{where} calls boussinesq.{module}.{name}, which is gone"
    # raises TypeError if a positional slot or a keyword the call passes is gone
    inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_benchmark_method_calls_run(monkeypatch):
    # the steppers the benchmark builds are called through methods, which
    # the signature check above cannot see
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    workloads = importlib.import_module("workloads")
    importlib.import_module("boussinesq.cli")  # as the benchmark does, loads every module
    bq = sys.modules["boussinesq"]
    for workload in workloads.WORKLOADS.values():
        workloads.setup(bq, workload, 0.0)
    _, state, stepper = workloads.build_run(bq, 0.0, "proposed", 16, 0.01)
    u, psi = stepper.step_arrays(state.u_curr, state.psi_curr, state.u_prev)
    assert u.shape == psi.shape == (33,)
    _, state, stepper = workloads.build_run(bq, 0.0, "frutos", 16, 0.01)
    assert stepper.step_arrays(state.u_curr, state.u_prev).shape == (33,)


def test_benchmark_ladders_build_the_runs_their_passes_step(monkeypatch):
    # setup builds each (scheme, N, dt) of workload.runs and the pass steps
    # the spec that workload.argv makes: the two lists are one set of runs
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    workloads = importlib.import_module("workloads")
    cli = importlib.import_module("boussinesq.cli")
    sizes = {}
    for workload in workloads.WORKLOADS.values():
        if workload.argv is None:
            continue
        spec = cli._spec_from_args(cli.build_parser().parse_args(workload.argv))
        runs = [(scheme, N, dt) for N in spec.N_list for scheme, dt in spec.runs]
        assert set(runs) == set(workload.runs), workload.name
        sizes[workload.name] = len(runs)
    assert sizes == {"spatial-ladder": 13, "temporal-ladder": 10, "stability-ladder": 8}


def test_benchmark_only_leftovers_still_have_a_reader():
    files = [ROOT / "benchmarks" / filename for filename in BENCHMARK_FILES]
    # verify steps through start/advance/state, so the benchmark is the last caller
    assert any(("step_arrays", None) in loaded_names(path, False) for path in files), (
        "benchmarks/ no longer calls .step_arrays: delete LinearStepper.step_arrays"
    )
    # run_batch starts every row through bootstrap, so the benchmark is the last caller
    assert any(
        (module, name) == ("stepping", "bootstrap_frutos")
        for _, module, name, _, _ in BENCHMARK_CALLS
    ), "benchmarks/ no longer calls bootstrap_frutos: delete stepping.bootstrap_frutos"
    # the equation is p = 2; these two stay only while the benchmark reads them
    assert any(("power", None) in loaded_names(path, False) for path in files), (
        "benchmarks/ no longer reads .power: delete the GBProblem.power constant"
    )
    assert any(
        name == "ProposedStepper" and (positional > 2 or "power" in keywords)
        for _, _, name, positional, keywords in BENCHMARK_CALLS
    ), "benchmarks/ no longer passes ProposedStepper a power: delete its power parameter"
    # nothing in src/ reads a result's spec, which stays while the benchmark passes one
    assert any(
        (module, name) == ("sweeps", "SweepResult") and "spec" in keywords
        for _, module, name, _, keywords in BENCHMARK_CALLS
    ), "delete SweepResult.spec"


def test_src_cites_only_roadmap_directions_that_exist():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    headings = set(re.findall(r"^- \*\*Direction (\d+)\.", roadmap, re.M))
    cited = {
        (path.name, number)
        for path in PACKAGE.glob("*.py")
        for number in re.findall(r"ROADMAP\s+direction\s+(\d+)", path.read_text())
    }
    assert cited, "no ROADMAP direction is cited under src/: drop this test"
    missing = sorted(f"{name}: direction {n}" for name, n in cited if n not in headings)
    assert not missing, f"src/ cites ROADMAP directions with no heading: {missing}"


@functools.cache
def loaded_names(path: Path, own_module: bool) -> set[tuple[str, str | None]]:
    """(name, enclosing top-level definition) of every Name or Attribute read in a file.

    The enclosing definition is recorded only for the module's own file, so
    that a function's use of itself does not count as a use.
    """
    out = set()
    for statement in ast.parse(path.read_text()).body:
        owner = getattr(statement, "name", None) if own_module else None
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add((node.attr, owner))
    return out


def exported() -> list[tuple[str, str]]:
    """(module, name) of every ``__all__`` entry of the package's modules."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            module = importlib.import_module(f"boussinesq.{path.stem}")
            out += [(path.stem, name) for name in getattr(module, "__all__", ())]
    return out


@pytest.mark.parametrize("module, name", exported(), ids=lambda x: x)
def test_every_exported_name_is_used(module, name):
    for path in [*PACKAGE.glob("*.py"), *ROOT.glob("benchmarks/*.py")]:
        if path == PACKAGE / "__init__.py":
            continue
        own = path == PACKAGE / f"{module}.py"
        if any(ref == name and owner != name for ref, owner in loaded_names(path, own)):
            return
    pytest.fail(f"{module}.{name} is exported but used nowhere in src/ or benchmarks/")


def test_importing_one_module_loads_no_other(package_env):
    code = "import sys, boussinesq.spectral\nprint(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=package_env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = [name for name in done.stdout.split() if name.startswith("boussinesq")]
    assert loaded == ["boussinesq", "boussinesq.spectral"]
