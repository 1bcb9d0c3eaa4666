import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_script_entry_points_resolve():
    # every console script must name an importable callable; a target in a
    # module that does not exist installs a command that fails on first use
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} target {target!r} is not callable"


def test_readme_named_in_pyproject_exists():
    # setuptools only warns when the readme is missing, and the built
    # package then has no long description
    readme = tomllib.loads(PYPROJECT.read_text())["project"]["readme"]
    assert (PYPROJECT.parent / readme).is_file()


SRC = PYPROJECT.parent / "src" / "capdrop"
TESTS = PYPROJECT.parent / "tests"
# base classes, caught by callers but never raised themselves
ERROR_BASES = {"CapdropError", "MeshError", "GeometryError"}


def _names(node):
    """Exception names in a raise target or a pytest.raises argument."""
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return {n for elt in node.elts for n in _names(elt)}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _walk(directory):
    for path in sorted(directory.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text()))


def test_every_error_type_is_raised_and_tested():
    # an error type that no code path raises, or that no test expects, is
    # dead surface: callers would catch something that never comes
    tree = ast.parse((SRC / "errors.py").read_text())
    errors = {node.name for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef)} - ERROR_BASES
    raised = {n for node in _walk(SRC) if isinstance(node, ast.Raise) and node.exc
              for n in _names(node.exc)}
    expected = {n for node in _walk(TESTS)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "raises" and node.args
                for n in _names(node.args[0])}
    assert errors
    assert sorted(errors - raised) == []
    assert sorted(errors - expected) == []


def test_every_exported_name_resolves():
    import capdrop
    modules = [capdrop] + [importlib.import_module(f"capdrop.{info.name}")
                           for info in pkgutil.iter_modules(capdrop.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"


def test_every_parameter_is_read():
    # a parameter that its function never reads is an option that does
    # nothing, or a value kept in a second home; a name that starts with
    # "_" marks one a callback's signature forces on it
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p})"
                       for p in params if p not in read and not p.startswith("_")]
    assert unread == []


def test_every_private_definition_is_used_in_the_package():
    # a private function or class that only tests reach is left over from a
    # deleted caller
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined
    assert sorted(defined - used) == []


def _definition(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name)


def test_every_stop_is_documented_and_only_named_stops_converge():
    # the stop's name is the report's verdict: SolveReport documents
    # exactly the names the flow loop assigns, and the converged tuple
    # names only those, so no stop is undocumented or documented but dead
    tree = ast.parse((SRC / "solver.py").read_text())
    stops = {node.value.value
             for node in ast.walk(_definition(tree, "_run_flow"))
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant)
             and any(isinstance(t, ast.Name) and t.id == "stop"
                     for t in node.targets)}
    documented = set(re.findall(r'"([^"]+)"', ast.get_docstring(
        _definition(tree, "SolveReport"))))
    assert stops and stops == documented
    converging = [{elt.value for elt in node.comparators[0].elts}
                  for node in ast.walk(_definition(tree, "_solve"))
                  if isinstance(node, ast.Compare)
                  and isinstance(node.left, ast.Name)
                  and node.left.id == "stop"
                  and isinstance(node.ops[0], ast.In)]
    assert len(converging) == 1
    assert converging[0] and converging[0] <= stops


# scipy parts that no solve uses: ODE integration and root finding serve
# only delaunay's profiles, the k-d tree only distance queries
DEFERRED_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.spatial")


def _loaded_after(statement):
    """The DEFERRED_SCIPY modules, ``scipy.linalg`` and ``scipy.sparse.linalg``
    that a fresh interpreter has loaded after running ``statement``."""
    probe = (f"import sys\n{statement}\n"
             f"print(sorted(m for m in {DEFERRED_SCIPY + ('scipy.linalg', 'scipy.sparse.linalg')!r}"
             " if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=SRC.parent,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_import_loads_only_what_a_solve_uses():
    # set-up pays for the integrator, the root finder and the k-d tree only
    # in the calls that use them; the solver's sparse LU stays at import so
    # the first solve does not pay for it; the dense scipy.linalg comes with
    # the sparse LU only, since the jet fit needs no more than numpy.linalg
    assert _loaded_after("import capdrop") == []
    assert _loaded_after("import capdrop.solver") == ["scipy.linalg",
                                                      "scipy.sparse.linalg"]
