"""The package's import graph, read from the source with ast.

The layers a CLI run goes through are quantum -> collisions ->
jaynes_cummings -> verify -> cli: the engine and its two map routes come
first, the closed form builds its maps as the engine's MapStack, and the
engine knows nothing of the layers above it. continuum, the paper's series
form, sits beside them: it imports the engine, and no module on the CLI's
path imports it. No module of the package imports scipy: the package's one
matrix exponential is the numpy ``collisions._expm``, and scipy is a test
dependency, the tests' reference exponential. One more check runs a fresh
interpreter: importing the CLI and running every shipped config must load
no scipy or mpmath module at all, and no nmcollide.continuum. mpmath costs
more than the rest of the import, and no CLI mode calls it: it is imported
inside the Talbot oracle, the only function that uses it.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nmcollide"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _imports(path: Path) -> set:
    """Modules of the package that one source file imports; the package itself is __init__."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import name: a submodule, or a name of the package
                found |= {a.name if a.name in MODULES else "__init__" for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nmcollide"):
            found.add((node.module.split(".") + ["__init__"])[1])
        elif isinstance(node, ast.Import):
            found |= {(a.name.split(".") + ["__init__"])[1]
                      for a in node.names if a.name.split(".")[0] == "nmcollide"}
    return found


GRAPH = {name: _imports(PACKAGE / f"{name}.py") for name in MODULES}


def test_every_module_is_read():
    assert {"cli", "collisions", "continuum", "jaynes_cummings", "verify"} <= set(GRAPH)
    assert set().union(*GRAPH.values()) <= set(MODULES)


def test_nothing_imports_cli():
    assert [name for name, deps in GRAPH.items() if "cli" in deps] == []


@pytest.mark.parametrize("module, forbidden", [
    ("collisions", {"continuum", "jaynes_cummings", "verify", "cli", "__init__"}),
    ("continuum", {"jaynes_cummings", "verify", "cli", "__init__"}),
    ("jaynes_cummings", {"continuum", "verify", "cli", "__init__"}),
])
def test_lower_layers_do_not_import_upper_ones(module, forbidden):
    assert GRAPH[module] & forbidden == set()


def test_closed_form_reads_map_stack_from_collisions():
    assert "collisions" in GRAPH["jaynes_cummings"]


def test_no_module_on_the_cli_path_imports_continuum():
    # the series form is run by no mode: the layers a CLI run loads, and the package root, which
    # the CLI imports, leave it out
    path = ("quantum", "collisions", "jaynes_cummings", "verify", "cli", "__init__")
    assert [name for name in path if "continuum" in GRAPH[name]] == []


def test_graph_is_acyclic():
    done, active = set(), []

    def visit(name):
        assert name not in active, f"import cycle {' -> '.join(active + [name])}"
        if name in done:
            return
        active.append(name)
        for dep in sorted(GRAPH[name]):
            visit(dep)
        active.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


LOADED = {name: importlib.import_module(f"nmcollide.{name}") for name in MODULES
          if name != "__init__"}
EXPORTS = {name: mod.__all__ for name, mod in LOADED.items() if hasattr(mod, "__all__")}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_defined(module):
    # a stale __all__ entry breaks only ``from module import *``, not a plain import
    assert [name for name in EXPORTS[module] if not hasattr(LOADED[module], name)] == []


def test_the_package_imports_only_exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    unlisted = [f"{node.module}.{a.name}" for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in EXPORTS
                for a in node.names if a.name not in EXPORTS[node.module]]
    assert unlisted == []


DOCS = [PACKAGE.parent.parent / "README.md", *sorted(PACKAGE.glob("*.py"))]
# `module.name` or ``nmcollide.module.name.attr``: one optional attribute after the name
DOC_REF = re.compile(r"`(?:nmcollide\.)?(%s)\.(\w+)(?:\.(\w+))?`" % "|".join(LOADED))


def test_one_cpt_default():
    # certify_cpt and the certify mode take their default tolerance from one constant: a second
    # literal 1e-9 would be an equal float, but not the same object
    cli, tolerances, verify = LOADED["cli"], LOADED["tolerances"], LOADED["verify"]
    defaults = [inspect.signature(verify.certify_cpt).parameters["tolerance"].default,
                cli.SCHEMA["certify"][1]["tolerance"][1], tolerances.CPT_TOLERANCE]
    assert all(default is tolerances.CPT_TOLERANCE for default in defaults)
    assert tolerances.CPT_TOLERANCE == 1e-9
    # nor does any other module name a copy of it (as the closed form's inequalities once did)
    copies = [(name, node.lineno) for name in MODULES if name != "tolerances"
              for node in ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
              and node.value.value == tolerances.CPT_TOLERANCE]
    assert copies == []


def test_one_cpt_verdict():
    # _execute judges every report that a mode returns, once, at the run's tolerance: cli.py reads
    # CptReport.verdict in one place, compares no Choi eigenvalue or trace defect itself, imports
    # no second Choi threshold and raises no InternalConsistencyError for a map that is not CPT
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "verdict"]
    assert len(reads) == 1
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for operand in (node.left, *node.comparators) for part in ast.walk(operand)
                if isinstance(part, ast.Attribute)
                and part.attr in ("min_choi_eigenvalue", "max_trace_defect")]
    assert compared == []
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "CHOI_POSITIVITY" not in imported
    raised = [_dotted(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    assert "ConfigurationError" in raised and "InternalConsistencyError" not in raised


def test_one_exception_class_per_exit_code():
    # a config error exits 2, a numerical failure 4 (a failed validation of computed data
    # included), and a failed CPT verdict 3 with no exception at all
    errors = LOADED["errors"]
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert classes == {"NmcollideError", "ConfigurationError", "InternalConsistencyError",
                       "ValidationError"}


def test_doc_references_resolve():
    refs = [(path.name, ref) for path in DOCS
            for ref in DOC_REF.finditer(path.read_text(encoding="utf-8"))]
    assert len(refs) >= 10
    stale = [f"{where}: {ref[0]}" for where, ref in refs
             if not hasattr(LOADED[ref[1]], ref[2])
             or (ref[3] and not hasattr(getattr(LOADED[ref[1]], ref[2]), ref[3]))]
    assert stale == []


def test_no_module_imports_scipy():
    # scipy is no runtime dependency (pyproject.toml lists it in the test extra only)
    found = [(name, node.lineno) for name in MODULES
             for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "scipy" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and (node.module or "").split(".")[0] == "scipy")]
    assert found == []


def _dotted(node) -> str:
    """a.b.c for a Name or an Attribute chain on one, else ''."""
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return node.id if isinstance(node, ast.Name) else ""


def test_cli_takes_its_certificates_from_verify():
    # every Choi spectrum, trace defect and probe distance the CLI writes comes from
    # verify.certify_cpt, verify.probe_distances or verify.probe_trace_defect: the CLI solves no
    # eigenproblem and contracts no Choi matrix itself
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [_dotted(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert [c for c in calls if c.split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"])] == []
    assert [c for c in calls if c.split(".")[-1] in ("einsum", "trace")] == []
    assert {"certify_cpt", "probe_distances", "probe_trace_defect"} <= set(calls)
    imported = {(node.module or "", a.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert [m for m, _ in imported if m.startswith("numpy.linalg")] == []
    assert [n for _, n in imported if n in ("density_stack", "trace_distances")] == []


def _calls(path: Path) -> list:
    """(innermost enclosing function, dotted callee) of every call in one source file; the
    function is '' at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((where, _dotted(child.func)))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_window_coordinates_are_built_in_one_place():
    # in collisions only Window.__post_init__ builds Hermitian units: the window loop reads the
    # system's units for its readout of the maps from the window it is given
    callers = {where for where, callee in _calls(PACKAGE / "collisions.py")
               if callee.split(".")[-1] == "_hermitian_units"}
    assert callers == {"__post_init__"}
    window = next(node for node in ast.parse((PACKAGE / "collisions.py").read_text("utf-8")).body
                  if isinstance(node, ast.ClassDef) and node.name == "Window")
    assert "__post_init__" in {node.name for node in window.body
                               if isinstance(node, ast.FunctionDef)}


# what a collisions.Window holds for one (H, rho_A), and the names that once passed it around
WINDOW_PARTS = {"basis", "attach", "trace", "reset", "readout", "commutator"}
GONE = {"window_operators", "_window_coordinates", "_in_window", "_commutator", "_unitary",
        "_system_dim_and_weights"}


def test_only_collisions_names_a_part_of_the_window():
    # every other module builds a Window and calls its routes, and reads none of its operators:
    # an attribute of that name on anything but numpy, or a name of the old pass-through
    # helpers, is refused
    found = []
    for name in MODULES:
        if name == "collisions":
            continue
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in WINDOW_PARTS
                    and _dotted(node.value) not in ("np", "numpy")):
                found.append((name, node.lineno, node.attr))
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if named in GONE:
                found.append((name, getattr(node, "lineno", 0), named))
    assert found == []


@pytest.mark.parametrize("module", ["cli", "verify"])
def test_no_private_engine_name_is_imported_but_whole_steps(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    private = {a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module == "collisions" for a in node.names if a.name.startswith("_")}
    assert private <= {"_whole_steps"}


def test_no_function_takes_the_window_apart():
    # the steps and the loop take one Window: no function of the package takes coordinates, a
    # commutator or a unitary beside it, and the engine's signatures have no optional value
    found = [(name, node.name, arg.arg) for name in MODULES
             for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
             if arg.arg in ("coords", "commutator", "unitary")]
    assert found == []
    collisions = LOADED["collisions"]
    engine = [collisions.Window, collisions.Window.discrete_maps,
              collisions.Window.lambda_embedding, collisions.protocol_step,
              collisions.generator_step, collisions.propagate_maps, collisions.discrete_maps,
              collisions.lambda_embedding]
    optional = [(f.__qualname__, p.name) for f in engine
                for p in inspect.signature(f).parameters.values() if p.default is not p.empty]
    assert optional == []


def test_closed_form_grid_is_built_in_one_place():
    # in cli only _closed_form_grid calls jc_maps: every closed-form mode evaluates one
    # gamma_bar-major grid, and none loops over gamma_bar calling jc_maps once each
    callers = [where for where, callee in _calls(PACKAGE / "cli.py")
               if callee.split(".")[-1] == "jc_maps"]
    assert callers == ["_closed_form_grid"]


def test_every_hermitian_spectrum_goes_through_hermitian_spectra():
    # quantum.hermitian_spectra solves each exact block of a stack and hands only the blocks
    # larger than 2x2 to eigvalsh: the package's one eigvalsh call is there
    sites = [(name, where, callee) for name in MODULES
             for where, callee in _calls(PACKAGE / f"{name}.py") if callee.endswith("eigvalsh")]
    assert sites == [("quantum", "hermitian_spectra", "np.linalg.eigvalsh")]
    renamed = [(name, a.name) for name in MODULES
               for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) for a in node.names if a.name == "eigvalsh"]
    assert renamed == []


def test_certify_cpt_builds_no_choi_stack():
    # certify_cpt reads the exact blocks of the Choi matrices from the superoperators: it neither
    # calls nor names MapStack.choi, the dense (n, d^2, d^2) route
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    certify = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "certify_cpt")
    named = [node.lineno for node in ast.walk(certify)
             if isinstance(node, ast.Attribute) and node.attr == "choi"]
    assert named == []
    assert any(callee == "hermitian_spectra" for where, callee in _calls(PACKAGE / "verify.py")
               if where == "certify_cpt")


KRAUS_LAYER = {"KrausChannel", "choi_of", "kraus_from_choi"}


@pytest.mark.parametrize("module", ["cli", "verify"])
def test_whole_steps_are_counted_by_the_one_rule(module):
    # a series' t_c on the tau grid and each t_c of a convergence study in its tau_max are counted
    # by collisions._whole_steps; neither caller rounds a ratio of its own
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    calls = [_dotted(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert "_whole_steps" in calls and "round" not in calls


def test_only_quantum_and_the_package_root_name_the_kraus_layer():
    # every route returns a MapStack and certify_cpt takes one: the Kraus layer stays an exported
    # reference route, and no other module imports, calls or reads it
    found = []
    for name in MODULES:
        if name in ("quantum", "__init__"):
            continue
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if named in KRAUS_LAYER:
                found.append((name, getattr(node, "lineno", 0), named))
    assert found == []


CONFIGS = PACKAGE.parent.parent / "configs"
# a top-level package counts with every submodule, a dotted module alone
UNUSED_BY_THE_CLI = ("scipy", "mpmath", "nmcollide.continuum")

_RUN_EVERY_CONFIG = """
import json, sys
from pathlib import Path
from nmcollide.cli import main
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
codes = {p.stem: main(["sweep" if p.stem == "sweep" else "run", str(p), "--output-dir",
                       str(out / p.stem)]) for p in sorted(configs.glob("*.json"))}
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules
                                   if m in sys.argv[3:] or m.split(".")[0] in sys.argv[3:])}))
"""


def test_cli_runs_load_no_module_it_does_not_call(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    done = subprocess.run(
        [sys.executable, "-c", _RUN_EVERY_CONFIG, str(CONFIGS), str(tmp_path), *UNUSED_BY_THE_CLI],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout)
    assert len(result["codes"]) == len(list(CONFIGS.glob("*.json"))) >= 7
    assert set(result["codes"].values()) == {0}
    assert result["loaded"] == []


BENCH = PACKAGE.parent.parent / "bench"


def _bench_imports() -> list:
    """(file:line, module, name) for every import of nmcollide in bench/, name None for a plain
    ``import nmcollide.x``; read with ast, so nothing from bench/ is imported."""
    found = []
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.relative_to(BENCH.parent)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nmcollide":
                found += [(where, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(where, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "nmcollide"]
    return found


def test_bench_imports_of_the_package_resolve():
    # bench/ changes only with the benchmark, so a rename here would otherwise
    # show up only as a failed benchmark run
    imports = _bench_imports()
    assert len(imports) >= 10
    missing = []
    for where, module, name in imports:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            missing.append(f"{where} {module}")
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"{where} {module}.{name}")
    assert missing == []


def test_bench_reads_the_work_of_a_series_result(monkeypatch):
    # bench/spans.py records each lambda_series call's work from its result's
    # truncation_order, which stays 0 now that nothing is truncated
    from nmcollide.continuum import TimeGrid, build_kernel_map, lambda_series
    from nmcollide.jaynes_cummings import jc_hamiltonian

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    args = (build_kernel_map(jc_hamiltonian()), 1.0, TimeGrid(1.0, 11))
    assert spans._series_work(args, {}, lambda_series(*args)) == {"orders": 0, "point_orders": 0}


@pytest.mark.parametrize("bath", [{"kind": "pure_ground"},
                                  {"kind": "thermal", "energies": (0.0, 1.0),
                                   "inverse_temperature": 0.8}], ids=["pure", "thermal"])
def test_bench_reads_brute_force_states_as_matrices(bath):
    # bench's reference check reads its betas from brute_force_chain(...).states[k].data,
    # starting from DensityOperator.basis(2, 1) and the |+> state
    import numpy as np
    from nmcollide.collisions import BathSpec, CollisionConfig
    from nmcollide.jaynes_cummings import jc_hamiltonian
    from nmcollide.quantum import DensityOperator
    from nmcollide.verify import brute_force_chain

    cfg = CollisionConfig(system_dim=2, ancilla_dim=2, hamiltonian=jc_hamiltonian(), t_c=0.1,
                          p_s=0.9, n_steps=3, bath=BathSpec(**bath))
    for rho in (DensityOperator.basis(2, 1), DensityOperator(np.full((2, 2), 0.5))):
        states = brute_force_chain(cfg, rho, n_max=3).states
        assert len(states) == 4
        for state in states:
            assert isinstance(state.data, np.ndarray) and state.data.shape == (2, 2)
