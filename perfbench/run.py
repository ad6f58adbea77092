"""cobkit benchmark.

    python3 perfbench/run.py --workload {scan,queries,cold_cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a cobkit checkout; the package is imported from
./src and never installed.  Workloads (see perfbench/README.md for why
each exists):

  scan      `scan --alpha-max 399` as CSV, then the same sweep as JSON;
            one op is that pair of sweeps, in process.
  queries   closed loop, one client: seeded single-verb `cli.main` calls.
  cold_cli  `python -m cobkit VERB ...`, one child at a time, cycling
            through the README examples in a seeded order.

With --trace 0 the run is untraced and reports the end-to-end metrics.
With --trace 1 it runs the same ops untraced, then traced, and reports
per-layer metrics from the spans plus the tracing overhead.  Every op's
output is checked against the recorded goldens and the fold oracle;
the last stdout line is one JSON object with correct, attempted, failed
and metrics.  The exit code is 1 when any op failed, 2 when the checkout
holds no cobkit sources.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 60
# In a traced queries run the untraced pass takes this share of --seconds;
# the traced pass then repeats exactly the same ops.
TRACE_UNTRACED_SHARE = 1 / 3
COLD_TRACE_ROUNDS = 2

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Recorder  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def call_cli(cli, argv):
    """One in-process CLI call: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crash is one failed op, never a reason to redraw
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue(), error


def run_child(cmd: list[str]):
    """One child process: (seconds, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    p = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


def verdict(code, stdout, error, golden: str | None, oracle) -> str | None:
    """Why an op failed, or None: it raised, exited 3 or nonzero, differs
    from its golden, or fails the oracle."""
    if error is not None:
        return error
    if code != 0:
        return f"exit code {code}"
    if golden is not None and checks.digest(code, stdout) != golden:
        return "output differs from golden"
    try:
        return oracle(stdout)
    except (ValueError, LookupError, TypeError) as exc:  # output the oracle cannot parse
        return f"output not recognised ({type(exc).__name__}: {exc})"


class Op(NamedTuple):
    seconds: float
    calls: int
    failures: list[str]
    parts: dict | None = None


class Scan:
    name = "scan"
    items_per_op = 2 * inputs.SCAN_ROWS

    def setup(self, seed: int) -> None:
        from cobkit import cli

        self.cli = cli
        self.goldens = checks.load_goldens("scan")
        call_cli(cli, inputs.SCAN_WARMUP)

    def op(self, i: int, rec) -> Op:
        parts, failures = {}, []
        for argv in inputs.SCAN_ARGVS:
            kind = "json" if "--json" in argv else "csv"
            seconds, code, stdout, error = call_cli(self.cli, argv)
            parts[kind] = seconds
            why = verdict(
                code, stdout, error, self.goldens[kind],
                lambda s: checks.oracle_scan(s, kind == "json"),
            )
            if why is not None:
                failures.append(f"scan {kind}: {why}")
        return Op(sum(parts.values()), len(parts), failures, parts)

    def provenance(self, n_ops: int) -> dict:
        return {"argv": inputs.SCAN_ARGVS, "rows_per_sweep": inputs.SCAN_ROWS}


class Queries:
    name = "queries"
    items_per_op = 1

    def setup(self, seed: int) -> None:
        from cobkit import cli

        self.cli = cli
        self.ops = inputs.queries(seed)
        self.goldens = checks.query_goldens(seed)
        call_cli(cli, inputs.QUERY_WARMUP)

    def _golden(self, i: int) -> str | None:
        k = checks.DIGEST_CHARS
        return self.goldens[i * k:(i + 1) * k] or None

    def op(self, i: int, rec) -> Op:
        q = self.ops[i % len(self.ops)]
        seconds, code, stdout, error = call_cli(self.cli, q.argv)
        why = verdict(
            code, stdout, error, self._golden(i % len(self.ops)),
            lambda s: checks.oracle_query(q, s),
        )
        return Op(seconds, 1, [] if why is None else [f"{q.argv}: {why}"])

    def provenance(self, n_ops: int) -> dict:
        ops = [self.ops[i % len(self.ops)] for i in range(n_ops)]
        lens = [q.pair for q in ops if q.kind == "lens"]
        digits = Counter((len(str(a)) - 1) // 10 * 10 + 1 for a, _ in lens)

        def deciles(kind):
            values = [q.modulus for q in ops if q.kind == kind]
            return statistics.quantiles(values, n=10, method="inclusive") if len(values) > 1 else values

        return {
            "ops": n_ops,
            "verb_mix": dict(sorted(Counter(q.kind for q in ops).items())),
            "lens_alpha_digits": {f"{lo}-{lo + 9}": n for lo, n in sorted(digits.items())},
            "lens_even_beta_share": sum(b % 2 == 0 for _, b in lens) / len(lens) if lens else 0.0,
            "surgery_lens_P_deciles": deciles("surgery-check --lens"),
            "surgery_det_D_deciles": deciles("surgery-check --det"),
            "goldens": min(n_ops, len(self.goldens) // checks.DIGEST_CHARS),
        }


class ColdCli:
    name = "cold_cli"
    items_per_op = 1

    def setup(self, seed: int) -> None:
        self.order = inputs.cold_order(seed)
        self.goldens = checks.load_goldens("cold_cli")
        run_child([sys.executable, "-m", "cobkit", *inputs.COLD_WARMUP])

    def op(self, i: int, rec) -> Op:
        argv = self.order[i % len(self.order)]
        if rec is None:
            cmd = [sys.executable, "-m", "cobkit", *argv]
        else:
            spans_file = OUT / "child-spans.tsv.gz"
            cmd = [sys.executable, str(HERE / "tracechild.py"), str(spans_file), *argv]
        seconds, code, stdout, stderr = run_child(cmd)
        if rec is not None and spans_file.exists():
            rec.extend(Recorder.read(spans_file), i)
            spans_file.unlink()
        error = None
        if "Traceback" in stderr:
            error = stderr.strip().splitlines()[-1]
        why = verdict(code, stdout, error, self.goldens[" ".join(argv)], lambda s: None)
        return Op(seconds, 1, [] if why is None else [f"{argv}: {why}"])

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of one `python -m cobkit` run of each
        example, each started through peakrss.py (see there for why)."""
        peaks = []
        for argv in inputs.COLD_EXAMPLES:
            p = subprocess.run(
                [sys.executable, "-S", str(HERE / "peakrss.py"), str(CHILD_TIMEOUT_S),
                 sys.executable, "-m", "cobkit", *argv],
                cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=2 * CHILD_TIMEOUT_S,
            )
            peaks.append(int(p.stdout.split()[-1]) / 1024)
        return max(peaks)

    def provenance(self, n_ops: int) -> dict:
        return {"order": [" ".join(a) for a in self.order], "runs": n_ops}


WORKLOADS = {w.name: w for w in (Scan, Queries, ColdCli)}


def run_ops(work, seconds: float | None, count: int | None = None, rec=None,
            between=None) -> list[Op]:
    """Closed loop: the next op starts when the previous one (and its
    check) is done.  Runs `count` ops, or until `seconds` have passed.
    `between(elapsed)`, if given, runs after each op, outside its timing
    and outside the `seconds` the loop measures."""
    ops = []
    t_start = time.perf_counter()
    paused = 0.0
    while True:
        if rec is not None:
            rec.current_op = len(ops)
        ops.append(work.op(len(ops), rec))
        elapsed = time.perf_counter() - t_start - paused
        if between is not None:
            t0 = time.perf_counter()
            between(elapsed)
            paused += time.perf_counter() - t0
        if count is not None and len(ops) >= count:
            return ops
        if count is None and elapsed >= seconds:
            return ops


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  Fewer than 11 samples give the max."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def setup_sample(workload: str, seed: int) -> float:
    """Setup time of a fresh workload process: from spawn to the moment
    its first timed op could start (import, input generation, warm-up)."""
    t0 = time.perf_counter()
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(p.stdout.split()[-1]) - t0


def spread_probes(workload: str, seed: int, seconds: float, samples: list[float]):
    """A `between` hook that takes setup samples spread evenly over the
    run, so that they meet the same host load as the ops do."""
    due = [seconds * k / SETUP_REPEATS for k in range(1, SETUP_REPEATS)]

    def between(elapsed: float) -> None:
        while due and elapsed >= due[0]:
            due.pop(0)
            samples.append(setup_sample(workload, seed))

    return between


def import_samples() -> tuple[list[float], list[float]]:
    """Cumulative import time of cobkit.cli (from -X importtime) and the
    wall time of a bare interpreter, in ms."""
    cobkit_ms, python_ms = [], []
    for _ in range(IMPORT_REPEATS):
        seconds, _, _, _ = run_child([sys.executable, "-c", "pass"])
        python_ms.append(seconds * 1e3)
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cobkit.cli"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        total_us = 0
        for line in p.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            name = fields[2][1:]
            if name == "cobkit" or name.startswith("cobkit."):
                total_us += int(fields[1])
        cobkit_ms.append(total_us / 1e3)
    return cobkit_ms, python_ms


def cpu_seconds() -> tuple[float | None, float]:
    """(busy CPU seconds of the whole host, or None off Linux;
    CPU seconds of this process and its finished children)."""
    own = sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None, own
    user, nice, system, idle, iowait, irq, softirq, steal = fields
    busy = user + nice + system + irq + softirq + steal
    return busy / os.sysconf("SC_CLK_TCK"), own


def host_meta() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cobkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_start": os.getloadavg(),
        "_start": (time.perf_counter(), *cpu_seconds()),
    }


def finish_meta(meta: dict) -> None:
    """Add the end load and the busy flag: the host counts as busy when
    other processes used more than a quarter of its CPUs during the run
    (or, off Linux, when the 1-minute load exceeded half the CPUs)."""
    meta["loadavg_end"] = os.getloadavg()
    wall0, host0, own0 = meta.pop("_start")
    host1, own1 = cpu_seconds()
    if host0 is None:
        meta["host_busy"] = meta["loadavg_end"][0] > 0.5 * meta["nproc"]
        return
    others = (host1 - host0 - (own1 - own0)) / ((time.perf_counter() - wall0) * meta["nproc"])
    meta["other_cpu_share"] = max(others, 0.0)
    meta["host_busy"] = others > 0.25


def own_peak_rss_mb() -> float:
    """Peak RSS of this process alone: VmHWM, where Linux has it, since
    ru_maxrss also counts the RSS of the process this one was forked from."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(work, ops: list[Op], setup: list[float]) -> tuple[dict, dict]:
    """(metrics for the driver, extra figures printed for people)."""
    seconds = [o.seconds for o in ops]
    value, pct, beyond = tail(seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (work.peak_rss_mb() if work.name == "cold_cli" else own_peak_rss_mb(), "MB"),
        "throughput_per_s": (work.items_per_op * len(ops) / sum(seconds), "1/s"),
        "p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "tail_ms": (value * 1e3, "ms"),
    }
    extra = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(ops),
    }
    if work.name == "scan":
        extra["rows_per_s"] = inputs.SCAN_ROWS / statistics.median(o.parts["csv"] for o in ops)
        extra["json_rows_per_s"] = inputs.SCAN_ROWS / statistics.median(o.parts["json"] for o in ops)
    else:
        extra["qps"] = metrics["throughput_per_s"][0]
    return metrics, extra


def per_layer(work, untraced: list[Op], traced: list[Op], rec: Recorder,
              imports: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """(metrics for the driver, the full per-layer table)."""
    layers, funcs = rec.summarize()
    units = len(traced) * work.items_per_op  # ops, or rows on scan
    wall_ns = sum(o.seconds for o in traced) * 1e9
    table = {}
    for layer, agg in layers.items():
        table[f"{layer}.self_ms"] = (agg["self_ns"] / 1e6 / units, "ms")
        table[f"{layer}.share"] = (agg["self_ns"] / wall_ns, "share")
        table[f"{layer}.calls"] = (agg["calls"] / units, "count")
        table[f"{layer}.raised"] = (agg["raised"] / units, "count")

    def func(q):
        return funcs.get(q, {"self_ns": 0, "calls": 0})

    for q in ("contfrac.find_admissible_cf", "contfrac.validate_admissible",
              "contfrac.eval_terms", "cobordism.MBounds"):
        table[f"{q}.per_row"] = (func(q)["calls"] / units, "count")
    eval_terms = func("contfrac.eval_terms")
    table["contfrac.eval_terms.self_us"] = (
        eval_terms["self_ns"] / 1e3 / max(eval_terms["calls"], 1), "us")
    for q in ("cli.build_parser", "arith.is_square_mod", "plumbing.inertia",
              "plumbing.det_exact"):
        table[f"{q}.self_ms"] = (func(q)["self_ns"] / 1e6 / units, "ms")
    table["arith.is_square_mod.calls"] = (func("arith.is_square_mod")["calls"] / units, "count")
    table["import.cobkit_ms"] = (statistics.median(imports[0]), "ms")
    table["import.python_ms"] = (statistics.median(imports[1]), "ms")
    plain = sum(o.seconds for o in untraced)
    table["trace.overhead_share"] = ((sum(o.seconds for o in traced) - plain) / plain, "share")
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    return {n: table[n] for n in names}, table


def run_all(args) -> int:
    """Run every workload in turn, one child process each; the last line
    merges their results, metric names prefixed with the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if p.returncode not in (0, 1):
            sys.stderr.write(p.stderr)
            return p.returncode
        lines = p.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"] and p.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "cobkit" / "cli.py").is_file():
        print(f"no cobkit sources under {SRC}; run from a cobkit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = WORKLOADS[args.workload]()
    if args.setup_probe:
        work.setup(args.seed)
        print(time.perf_counter())
        return 0

    OUT.mkdir(exist_ok=True)
    meta = host_meta()
    meta["seed"] = args.seed
    if args.trace:
        imports = import_samples()
        work.setup(args.seed)
        if work.name == "queries":
            untraced = run_ops(work, args.seconds * TRACE_UNTRACED_SHARE)
        elif work.name == "cold_cli":
            untraced = run_ops(work, None, COLD_TRACE_ROUNDS * len(inputs.COLD_EXAMPLES))
        else:
            untraced = run_ops(work, None, 1)
        rec = Recorder()
        if work.name != "cold_cli":
            rec.install()
        traced = run_ops(work, None, len(untraced), rec)
        ops = untraced + traced
        metrics, table = per_layer(work, untraced, traced, rec, imports)
        rec.write(OUT / f"spans-{work.name}-seed{args.seed}.tsv.gz")
        report = {"per_layer": table}
    else:
        setup = [setup_sample(args.workload, args.seed)]
        work.setup(args.seed)
        ops = run_ops(work, args.seconds,
                      between=spread_probes(args.workload, args.seed, args.seconds, setup))
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_sample(args.workload, args.seed))
        metrics, extra = end_to_end(work, ops, setup)
        report = {"end_to_end": metrics, "extra": extra, "setup_samples_s": setup}
    finish_meta(meta)

    failures = [f for o in ops for f in o.failures]
    attempted = sum(o.calls for o in ops)
    report.setdefault("extra", {})["failed_share"] = len(failures) / attempted
    report.update(
        workload=work.name, meta=meta, provenance=work.provenance(len(ops)),
        attempted=attempted, failed=len(failures), failures=failures[:20],
    )
    (OUT / f"{work.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"# cobkit benchmark: workload {work.name}, seed {args.seed}, trace {args.trace}")
    print("# meta " + json.dumps(meta))
    print("# provenance " + json.dumps(report["provenance"]))
    for name, (value, unit) in (report.get("per_layer") or metrics).items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for name, value in report["extra"].items():
        print(f"{name:40s} {value:14.6g}")
    for f in failures[:20]:
        print(f"# FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
