"""Every third-party module that src/ imports, at module level or inside a
function, is a declared run-time dependency of the package; jsonschema,
which only a rejected config's message reads, is imported only inside a
function."""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).parents[1]


def src_imports():
    """(file name, top-level module, whether inside a function) of every
    absolute import in src/."""
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        in_function = {
            id(node) for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found |= {(path.name, m.split(".")[0], id(node) in in_function) for m in modules}
    return found


def requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_src_imports_only_declared_runtime_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = requirement_names(project["dependencies"])
    imports = src_imports()
    third_party = {
        module for _, module, _ in imports
        if module not in sys.stdlib_module_names and module != "xyzglass"
    }
    assert third_party and third_party <= runtime, third_party - runtime
    assert "jsonschema" in runtime
    jsonschema_imports = [(name, inside) for name, module, inside in imports if module == "jsonschema"]
    assert jsonschema_imports == [("cli.py", True)]
