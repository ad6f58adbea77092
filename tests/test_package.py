import ast
import importlib.util
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run python args in a fresh interpreter with the package on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )


def load(name):
    """A benchmark module, loaded by path: the README examples the
    cold_cli workload runs and the layers its tracer wraps."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COLD_EXAMPLES = load("inputs").COLD_EXAMPLES
LAYERS = load("spans").LAYERS

# Runs the CLI as `python -m cobkit` does, then prints the loaded module
# names as its last line.  -S keeps site and its .pth hooks out, so only
# what the package imports is counted.
_PROBE = """\
import sys
import cobkit.cli
code = cobkit.cli.main(sys.argv[1:])
print(*sorted(sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", COLD_EXAMPLES, ids=" ".join)
def test_cli_imports(argv):
    proc = fresh("-S", "-c", _PROBE, *argv)
    loaded = set(proc.stdout.splitlines()[-1].split())
    # the tracer wraps every layer module once cobkit.cli is imported
    assert {f"cobkit.{layer}" for layer in LAYERS} <= loaded
    assert "dataclasses" not in loaded
    assert ("json" in loaded) == ("--json" in argv)
    # the CSV mode writes its lines as text
    assert "csv" not in loaded


def test_scan_json_loads_no_encoder():
    # scan prints its JSON rows as text
    proc = fresh("-S", "-c", _PROBE, "scan", "--alpha-max", "9", "--json")
    assert proc.stdout.startswith('{\n  "rows": [\n')
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "cobkit.lens" in loaded
    assert not loaded & {"json", "csv"}


def test_scan_csv_loads_no_csv_module():
    # scan's CSV rows are joined as text, as its JSON rows are written
    proc = fresh("-S", "-c", _PROBE, "scan", "--alpha-max", "9")
    assert proc.stdout.startswith("alpha,beta,m_lower,mbar_upper,cf,order\n3,1,")
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "cobkit.lens" in loaded
    assert not loaded & {"json", "csv"}


def test_package_imports():
    loaded = set(fresh("-S", "-c", "import sys, cobkit; print(*sys.modules)").stdout.split())
    assert "cobkit.lens" in loaded
    assert not loaded & {"dataclasses", "json", "csv", "cobkit.cli"}


def readme_example() -> str:
    """The python block of README.md: the library example."""
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    return block


def test_readme_example_runs():
    exec(compile(readme_example(), "README.md", "exec"), {})


def test_every_public_name_has_a_consumer():
    # a public top-level def or class of the package must be read, by name,
    # outside its own definition: by package code, a script or the README
    # example; code that only the tests call belongs in tests/oracles.py
    modules = [path for path in sorted((SRC / "cobkit").glob("*.py")) if path.name != "__init__.py"]
    sources = {path: path.read_text() for path in [*modules, *sorted((ROOT / "scripts").glob("*.py"))]}
    sources["README.md"] = readme_example()
    defined = []
    readers = defaultdict(set)  # name -> {(source, top-level def or class reading it)}
    for source, text in sources.items():
        for node in ast.parse(text).body:
            owner = getattr(node, "name", None)
            if source in modules and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not owner.startswith("_"):
                    defined.append((source, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    readers[sub.id].add((source, owner))
                elif isinstance(sub, ast.Attribute):
                    readers[sub.attr].add((source, owner))
    unread = {name for source, name in defined if not readers[name] - {(source, name)}}
    assert unread == set()


def test_public_names():
    # a fresh interpreter: importing cobkit.cli elsewhere would add "cli"
    proc = fresh("-c", "import cobkit; print(*dir(cobkit))")
    public = [name for name in proc.stdout.split() if not name.startswith("_")]
    assert public == [
        "AdmissibleCF",
        "DomainError",
        "GenusBound",
        "LensSpace",
        "MBounds",
        "MontesinosInvariants",
        "MpqrTriple",
        "ObstructionReport",
        "ObstructionTest",
        "OrderCertificate",
        "PlatInvariants",
        "ResourceLimitError",
        "RokhlinClass",
        "TpqrInvariants",
        "admissible_cf",
        "arf_from_surgery",
        "arith",
        "classify_order",
        "cobordism",
        "congruence_obstruction",
        "contfrac",
        "errors",
        "family",
        "find_admissible_cf",
        "find_positive_cf",
        "format_cf",
        "infinite_order_certificate",
        "is_square_mod",
        "lens",
        "m_bounds",
        "merge_bounds",
        "montesinos_invariants",
        "obstruction_report",
        "parse_cf",
        "plat_invariants",
        "plumbing",
        "qr_obstruction",
        "reverse_orientation",
        "sigma_pqr_bounds",
        "slice_genus_lower",
        "surgery",
        "table1",
        "tpqr_invariants",
        "twobridge",
        "unknotting_one_obstruction",
    ]


def test_cli_reads_no_private_name():
    # the tracer wraps only public names, so a verb whose work ran in
    # another module's private function would read 0 in that layer
    tree = ast.parse((SRC / "cobkit" / "cli.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None
        for alias in node.names
    }
    assert {"contfrac", "lens", "twobridge"} <= modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names if alias.name.startswith("_")]
            private += [f"from .{node.module or ''} import {name}" for name in names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and node.attr.startswith("_"):
                private.append(f"{node.value.id}.{node.attr}")
    assert private == []


def test_package_never_uses_floats():
    # exact arithmetic only: integers and Fractions
    found = []
    for path in sorted((SRC / "cobkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{where} literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where} name float")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{where} true division")
            elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
                found.append(f"{where} import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where} math.{a.name}" for a in node.names if a.name != "gcd"]
    assert found == []
