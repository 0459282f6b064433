"""Every third-party module that src/ imports, at module level or inside a
function, is a declared run-time dependency of the package; jsonschema,
which only the tests use as the config check's oracle, is not imported."""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).parents[1]


def src_imports():
    """(file name, top-level module) of every absolute import in src/."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    return found


def requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_src_imports_only_declared_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = requirement_names(project["dependencies"])
    imports = src_imports()
    third_party = {
        module for _, module in imports
        if module not in sys.stdlib_module_names and module != "xyzglass"
    }
    assert third_party and third_party <= runtime, third_party - runtime
    assert [name for name, module in imports if module == "jsonschema"] == []
    assert "jsonschema" not in runtime
    assert "jsonschema" in requirement_names(project["optional-dependencies"]["test"])
