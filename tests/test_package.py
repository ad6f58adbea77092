import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_public_names():
    # a fresh interpreter: importing cobkit.cli elsewhere would add "cli"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import cobkit; print(*dir(cobkit))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
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
