"""Record the goldens the benchmark checks outputs against.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose outputs are known to be right.
Writes perfbench/goldens/{scan,cold_cli,queries}.json: for every op, the
exit code and stdout digest (see checks.digest).  Queries goldens cover
the first GOLDEN_OPS ops of each seed in GOLDEN_SEEDS; later ops and
other seeds are checked by the oracle alone.
"""

import hashlib
import json
import sys

import checks
import inputs
import run

GOLDEN_SEEDS = range(0, 11)
GOLDEN_OPS = 5000


def record(name: str, doc: dict) -> None:
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    path = checks.GOLDEN_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def refuse(argv, code, error) -> None:
    """Goldens are recorded only from ops that succeed."""
    if error is not None or code != 0:
        raise SystemExit(f"not recording goldens: {argv} gave exit {code} ({error})")


def main() -> int:
    from cobkit import cli

    scan = {}
    for argv in inputs.SCAN_ARGVS:
        kind = "json" if "--json" in argv else "csv"
        _, code, stdout, error = run.call_cli(cli, argv)
        refuse(argv, code, error)
        scan[kind] = checks.digest(code, stdout)
        scan[f"{kind}_stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    record("scan", scan)

    cold = {}
    for argv in inputs.COLD_EXAMPLES:
        _, code, stdout, stderr = run.run_child([sys.executable, "-m", "cobkit", *argv])
        refuse(argv, code, stderr or None)
        cold[" ".join(argv)] = checks.digest(code, stdout)
    record("cold_cli", cold)

    seeds = {}
    for seed in GOLDEN_SEEDS:
        digests = []
        for q in inputs.queries(seed)[:GOLDEN_OPS]:
            _, code, stdout, error = run.call_cli(cli, q.argv)
            refuse(q.argv, code, error)
            digests.append(checks.digest(code, stdout))
        seeds[str(seed)] = "".join(digests)
        print(f"seed {seed}: {len(digests)} ops", file=sys.stderr)
    record("queries", {"seeds": seeds})
    return 0


if __name__ == "__main__":
    sys.exit(main())
