"""Benchmark of alpquad: four workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a source checkout (the package is imported from src/):

    python3 bench/run.py --workload rule-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seconds 10

One run sets up (fresh-process import plus cache warming, several times),
runs whole rounds of the workload for --seconds, checks the outputs of a
round against an exact oracle and requires every round to give the same
outputs. With --trace 0 it reports the end-to-end metrics; with --trace 1
it runs half the time untraced and half traced, and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record goes to
bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json, and a traced run's
spans to bench/out/spans_<workload>_seed<seed>.csv.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spans

# one thread per process: no BLAS thread pool competing on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("rule-sweep", "verify-sweep", "eval-grid", "cli-mix")
SETUP_PROBES = 7
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
clock = time.perf_counter


def probe(code: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``code``, and its stdout."""
    t = clock()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV, capture_output=True, text=True, check=True)
    return clock() - t, proc.stdout


def setup_probes(warm_code: str) -> tuple[list[float], list[float]]:
    """Set-up times (import alpquad plus cache warming, whole process) and import times."""
    code = (
        "import time\nt0 = time.perf_counter()\nimport alpquad as aq\n"
        "print(time.perf_counter() - t0)\n" + warm_code
    )
    walls, imports = [], []
    for _ in range(SETUP_PROBES):
        wall, out = probe(code)
        walls.append(wall)
        imports.append(float(out))
    return walls, imports


def run_rounds(wl, round_fn, seconds: float, first=None, on_round=None):
    """Whole rounds until ``seconds`` have passed; returns round walls, the
    first round's outputs, and how many rounds differed from it."""
    walls, differing = [], 0
    start = clock()
    while True:
        if on_round is not None:
            on_round(len(walls))
        t = clock()
        out = round_fn()
        walls.append(clock() - t)
        wl.end_round()
        if first is None:
            first = out
        elif not wl.same(out, first):
            differing += 1
        if clock() - start >= seconds:
            return walls, first, differing


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(tracer, rounds: int, setup_misses: dict, round_misses: dict) -> dict:
    calls, incl, self_s = tracer.totals()

    def per_round(value):
        return value / rounds

    m = {}

    def add(name, value, unit):
        m[name] = (value, unit)

    add("quadrature.nodes.s", per_round(incl["quadrature.nodes"]), "s/round")
    add("quadrature.nodes.calls", per_round(calls["quadrature.nodes"]), "calls/round")
    add("quadrature.weights.s", per_round(incl["quadrature.weights"]), "s/round")
    add("quadrature.build_rule.self_s", per_round(self_s["quadrature.build_rule"]), "s/round")
    for name in ("horner.comp_horner", "jacobi.jacobi_eval"):
        add(f"{name}.calls", per_round(calls[name]), "calls/round")
        add(f"{name}.points", per_round(tracer.items[name]), "points/round")
        add(f"{name}.s", per_round(incl[name]), "s/round")
    add("jacobi.jacobi_shifted_coefficients.s", per_round(incl["jacobi.jacobi_shifted_coefficients"]), "s/round")
    add("family.AlpFamily.eval.calls", per_round(calls["family.AlpFamily.eval"]), "calls/round")
    add("family.AlpFamily.eval.s", per_round(incl["family.AlpFamily.eval"]), "s/round")
    for cache in ("alp_coefficients", "family"):
        add(f"family.{cache}.misses", setup_misses[cache] + per_round(round_misses[cache]), "misses")
    add("family.routes.s", per_round(sum(v for k, v in incl.items() if k.startswith("family.routes."))), "s/round")
    for name in ("exactpoly.Polynomial.mul", "exactpoly.inner_product"):
        add(f"{name}.calls", per_round(calls[name]), "calls/round")
        add(f"{name}.s", per_round(incl[name]), "s/round")
    reports = 0
    for name in ("verify.verify_identity_suite", "verify.verify_orthogonality", "verify.verify_aux_orthogonality"):
        add(f"{name}.s", per_round(incl[name]), "s/round")
        reports += tracer.items[name]
    add("verify.reports", per_round(reports), "reports/round")
    for layer in spans.LAYERS:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        add(f"layer.{layer}.self_s", per_round(total), "s/round")
    return m


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "alpquad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """The checkout's commit read from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
                return next(line.split()[0] for line in f if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown"


def run_one(args) -> int:
    sys.path.insert(1, SRC)
    import alpquad

    if os.path.dirname(os.path.abspath(alpquad.__file__)) != os.path.join(SRC, "alpquad"):
        print(f"error: alpquad imported from {alpquad.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](seed=args.seed, root=ROOT, env=ENV)
    setup_walls, import_s = setup_probes(wl.warm_code)
    before = workloads.cache_misses()
    exec(wl.warm_code, {"aq": alpquad})
    setup_misses = {k: v - before[k] for k, v in workloads.cache_misses().items()}

    metrics, detail, spans_path = {}, {}, None
    if not args.trace:
        walls, first, differing = run_rounds(wl, wl.round, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_walls), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(children=wl.name == "cli-mix"), "MB")
        metrics["ops_per_s"] = (len(walls) * wl.ops_per_round / sum(walls), "ops/s")
        metrics["call_ms_p50"] = (statistics.median(wl.call_medians) * 1e3, "ms")
        detail = {alias: (metrics[name][0], unit) for name, (alias, unit) in wl.ALIASES.items()}
        detail.update(wl.detail(walls))
    else:
        interpreter = [probe("pass")[0] for _ in range(SETUP_PROBES)]
        untraced, first, differing = run_rounds(wl, wl.trace_round, args.seconds / 2)
        main_s = list(getattr(wl, "main_s", ()))  # untraced in-process CLI calls
        tracer = spans.Tracer()

        def on_round(i):
            tracer.round = i

        before = workloads.cache_misses()
        tracer.install()
        try:
            walls, first, more = run_rounds(wl, wl.trace_round, args.seconds / 2, first, on_round)
        finally:
            tracer.uninstall()
        differing += more
        round_misses = {k: v - before[k] for k, v in workloads.cache_misses().items()}
        metrics = layer_metrics(tracer, len(walls), setup_misses, round_misses)
        metrics["cli.interpreter_ms"] = (statistics.median(interpreter) * 1e3, "ms")
        metrics["cli.import_ms"] = (statistics.median(import_s) * 1e3, "ms")
        metrics["cli.main_ms"] = (statistics.median(main_s) * 1e3 if main_s else 0.0, "ms")
        metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(untraced), "s/round")
        walls = untraced + walls
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans_{wl.name}_seed{args.seed}.csv.gz")
        tracer.write(spans_path)

    problems, failed_per_round = wl.check(first)
    if differing:
        problems.append(f"{differing} of {len(walls)} rounds gave outputs different from the first round")
    rounds = len(walls)
    result = {
        "correct": not problems,
        "attempted": rounds * wl.ops_per_round,
        "failed": rounds * failed_per_round,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(
        workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace, rounds=rounds,
        round_walls_s=walls, setup_walls_s=setup_walls, problems=problems[:50], spans=spans_path,
        detail={name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        machine=machine(), **result,
    )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    for p in problems[:20]:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {rounds} rounds, "
          f"{result['attempted']} attempted, {result['failed']} failed, correct={result['correct']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, (value, unit) in detail.items():
        print(f"  {name:40s} {value:14.6g} {unit}  (workload detail)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """The self-test of the checks, then each workload in its own process."""
    bad = subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")], cwd=ROOT).returncode != 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit code {proc.returncode})")
            bad += 1
            continue
        bad += proc.returncode != 0 or not result["correct"]
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "alpquad", "__init__.py")):
        print(f"error: no alpquad sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
