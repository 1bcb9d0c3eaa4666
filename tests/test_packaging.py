import importlib
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
