import ast
import importlib
import pkgutil
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
