import importlib.util
import os
import subprocess
import sys
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
    assert ("csv" in loaded) == ("--csv" in argv)


def test_package_imports():
    loaded = set(fresh("-S", "-c", "import sys, cobkit; print(*sys.modules)").stdout.split())
    assert "cobkit.lens" in loaded
    assert not loaded & {"dataclasses", "json", "csv", "cobkit.cli"}


def test_public_names():
    # a fresh interpreter: importing cobkit.cli elsewhere would add "cli"
    proc = fresh("-c", "import cobkit; print(*dir(cobkit))")
    public = [name for name in proc.stdout.split() if not name.startswith("_")]
    assert public == [
        "AdmissibleCF",
        "DomainError",
        "EvaluationError",
        "GenusBound",
        "LensSpace",
        "MBounds",
        "MontesinosInvariants",
        "MpqrTriple",
        "ObstructionReport",
        "ObstructionTest",
        "OddCounts",
        "OrderCertificate",
        "ResourceLimitError",
        "RokhlinClass",
        "TpqrInvariants",
        "admissible_cf",
        "arf_from_surgery",
        "arith",
        "branched_cover_bounds",
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
        "is_knot",
        "is_square_mod",
        "jacobi",
        "lens",
        "m_bounds",
        "m_bounds_from_surgery",
        "merge_bounds",
        "montesinos_invariants",
        "obstruction_report",
        "odd_counts",
        "parse_cf",
        "plumbing",
        "qr_obstruction",
        "reverse_orientation",
        "sigma_pqr_bounds",
        "signature",
        "slice_genus_lower",
        "slice_genus_upper",
        "surgery",
        "table1",
        "tpqr_invariants",
        "twobridge",
        "unknotting_one_obstruction",
    ]
