"""The four benchmark workloads.

Each workload builds its inputs from the seed, runs whole rounds of the same
operations through alpquad's public API (``round``), and checks the outputs
of a round against the oracle or against properties of the method
(``check``). ``warm_code`` is the cache warming that the set-up probe and the
benchmark process both run before anything is timed. Package functions are
looked up on ``alpquad`` at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import subprocess
import sys
import time

import numpy as np

import alpquad as aq
import alpquad.cli  # noqa: F401  (in-process CLI calls of cli-mix)
import checks
import oracle

clock = time.perf_counter
_family_module = sys.modules["alpquad.family"]
# the cache objects themselves, kept before any tracer wraps them
CACHES = {"alp_coefficients": _family_module.alp_coefficients, "family": _family_module.family}
_cleared_misses = dict.fromkeys(CACHES, 0)


def cache_misses() -> dict:
    """Misses of each package cache since start-up, across clear_caches()."""
    return {name: _cleared_misses[name] + c.cache_info().misses for name, c in CACHES.items()}


def clear_caches() -> None:
    for name, c in CACHES.items():
        _cleared_misses[name] += c.cache_info().misses
        c.cache_clear()


class Workload:
    name = ""
    warm_code = ""
    ops_per_round = 0
    # the workload's own names for the end-to-end metrics, printed alongside them
    ALIASES: dict[str, tuple[str, str]] = {}

    def __init__(self):
        # wall time of each public call (or CLI process) in the current round,
        # and the median of each finished round: memory stays flat over a run
        self.round_call_s: list[float] = []
        self.call_medians: list[float] = []

    def timed(self, fn, *args, **kwargs):
        t = clock()
        result = fn(*args, **kwargs)
        self.round_call_s.append(clock() - t)
        return result

    def end_round(self) -> None:
        if self.round_call_s:
            self.call_medians.append(statistics.median(self.round_call_s))
            self.round_call_s.clear()

    def round(self):
        raise NotImplementedError

    def trace_round(self):
        """The round the traced run times; the in-process workloads trace ``round`` itself."""
        return self.round()

    def same(self, a, b) -> bool:
        return a == b

    def check(self, out) -> tuple[list[str], int]:
        """Problems found in one round's outputs, and the operations of it that failed."""
        raise NotImplementedError

    def detail(self, walls: list[float]) -> dict:
        """Workload-specific figures, under the names README.md gives them."""
        return {}


class RuleSweep(Workload):
    """build_rule(n, k) for every 1 <= k <= n <= 30, in a seeded order."""

    name = "rule-sweep"
    ALIASES = {"ops_per_s": ("rules_per_s", "rules/s"), "call_ms_p50": ("rule_ms_p50", "ms")}
    warm_code = "for n in range(31):\n    aq.family(n)"
    NMAX = 30

    def __init__(self, seed: int, **_):
        super().__init__()
        self.pairs = [(n, k) for n in range(1, self.NMAX + 1) for k in range(1, n + 1)]
        random.Random(seed).shuffle(self.pairs)
        self.ops_per_round = len(self.pairs)

    def round(self):
        return [self.timed(aq.build_rule, n, k) for n, k in self.pairs]

    def check(self, out):
        problems = []
        for (n, k), rule in zip(self.pairs, out):
            if (rule.n, rule.k) != (n, k):
                problems.append(f"rule ({n},{k}) came back as ({rule.n},{rule.k})")
            problems.extend(checks.rule_problems(n, k, rule.nodes, rule.weights))
        return problems, 0


class VerifySweep(Workload):
    """The report set of `alpquad verify`, assembled in-process at order 20."""

    name = "verify-sweep"
    ALIASES = {"ops_per_s": ("checks_per_s", "reports/s")}
    ORDER = 20
    SAMPLE = 150  # orthogonality and auxiliary reports recomputed by the oracle
    warm_code = f"for n in range({ORDER + 1}):\n    for k in range(n + 1):\n        aq.alp_coefficients(n, k)"

    def __init__(self, seed: int, **_):
        super().__init__()
        self.rng = random.Random(seed)
        self.ops_per_round = checks.report_count(self.ORDER)

    def round(self):
        nmax = self.ORDER
        reports = self.timed(aq.verify_identity_suite, nmax)
        for n in range(nmax + 1):
            reports.extend(self.timed(aq.verify_orthogonality, n))
            reports.extend(self.timed(aq.verify_aux_orthogonality, n, nmax))
        reports.sort(key=lambda r: (r.n, r.k, r.identity, r.note))
        return reports

    def check(self, out):
        tuples = [checks.report_tuple(r) for r in out]
        pool = [r for r in tuples if r[0] in ("orthogonality", "aux_orthogonality")]
        sample = self.rng.sample(pool, min(self.SAMPLE, len(pool)))
        return checks.report_problems(tuples, self.ORDER, sample), 0


class EvalGrid(Workload):
    """alp_eval on a seeded point array for every member with n <= 40, plus
    scalar alp_eval, alp_eval_recurrence and alp_derivative_eval calls.

    The scalar points are seeded in [0.01, 0.99]. The derivative is also
    called at a fixed set of points near both endpoints; near x = 1 the
    raising identity it uses loses digits, and the calls that miss the
    tolerance are counted as failed operations.
    """

    name = "eval-grid"
    NMAX = 40
    ARRAY_POINTS = 512
    SCALAR_REPEAT = 4  # scalar alp_eval and alp_derivative_eval calls per member
    RECURRENCE_CALLS = 8  # alp_eval_recurrence calls per order n
    CHECKED_ARRAY_POINTS = 4  # per member, compared with the oracle
    FAULT_MEMBERS = ((5, 2), (10, 3), (20, 5), (30, 0), (12, 1), (25, 1))
    FAULT_POINTS = (1e-9, 1e-7, 1.0 - 1e-7, 1.0 - 1e-9)
    warm_code = f"for n in range({NMAX + 1}):\n    aq.family(n)"

    def __init__(self, seed: int, **_):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.members = [(n, k) for n in range(self.NMAX + 1) for k in range(n + 1)]
        self.xs = np.concatenate(([0.0], rng.random(self.ARRAY_POINTS - 2), [1.0]))

        def scalars(count):
            return [float(x) for x in 0.01 + 0.98 * rng.random(count)]

        reps = self.SCALAR_REPEAT
        self.eval_calls = [(n, k, x) for (n, k), x in zip(self.members * reps, scalars(len(self.members) * reps))]
        self.deriv_calls = [(n, k, x) for (n, k), x in zip(self.members * reps, scalars(len(self.members) * reps))]
        orders = [n for n in range(self.NMAX + 1) for _ in range(self.RECURRENCE_CALLS)]
        self.rec_calls = list(zip(orders, scalars(len(orders))))
        self.fault_calls = [(n, k, x) for n, k in self.FAULT_MEMBERS for x in self.FAULT_POINTS]
        self.checked = [
            rng.choice(self.ARRAY_POINTS, self.CHECKED_ARRAY_POINTS, replace=False) for _ in self.members
        ]
        self.scalar_calls = len(self.eval_calls) + len(self.deriv_calls) + len(self.rec_calls) + len(self.fault_calls)
        self.ops_per_round = len(self.members) + self.scalar_calls
        self.array_s: list[float] = []
        self.scalar_s: list[float] = []

    def round(self):
        xs, timed = self.xs, self.timed
        t0 = clock()
        arrays = [timed(aq.alp_eval, n, k, xs) for n, k in self.members]
        t1 = clock()
        evals = [timed(aq.alp_eval, n, k, x) for n, k, x in self.eval_calls]
        recs = [timed(aq.alp_eval_recurrence, n, x) for n, x in self.rec_calls]
        derivs = [timed(aq.alp_derivative_eval, n, k, x) for n, k, x in self.deriv_calls]
        faults = [timed(aq.alp_derivative_eval, n, k, x) for n, k, x in self.fault_calls]
        t2 = clock()
        self.array_s.append(t1 - t0)
        self.scalar_s.append(t2 - t1)
        return arrays, evals, recs, derivs, faults

    def same(self, a, b):
        return all(np.array_equal(u, v) for u, v in zip(a[0], b[0])) and a[1:] == b[1:]

    def check(self, out):
        arrays, evals, recs, derivs, faults = out
        problems = []
        for (n, k), values, idx in zip(self.members, arrays, self.checked):
            if values.shape != self.xs.shape:
                problems.append(f"alp_eval({n},{k}, array): shape {values.shape}")
                continue
            for i in idx:
                exact = oracle.value(oracle.coefficients(n, k), float(self.xs[i]))
                problems += checks.value_problem(f"alp_eval({n},{k}) at {self.xs[i]!r}", float(values[i]), exact, checks.VALUE_TOL)
        for (n, k, x), got in zip(self.eval_calls, evals):
            exact = oracle.value(oracle.coefficients(n, k), x)
            problems += checks.value_problem(f"alp_eval({n},{k},{x!r})", got, exact, checks.VALUE_TOL)
        for (n, x), got in zip(self.rec_calls, recs):
            for k, v in zip(range(n, -1, -1), got):
                exact = oracle.value(oracle.coefficients(n, k), x)
                problems += checks.value_problem(f"alp_eval_recurrence({n},{x!r})[k={k}]", v, exact, checks.VALUE_TOL)
            if len(got) != n + 1:
                problems.append(f"alp_eval_recurrence({n},{x!r}): {len(got)} values")
        for (n, k, x), got in zip(self.deriv_calls, derivs):
            exact = oracle.value(oracle.derivative(n, k), x)
            problems += checks.value_problem(f"alp_derivative_eval({n},{k},{x!r})", got, exact, checks.DERIV_TOL)
        failed = sum(
            bool(checks.value_problem("", got, oracle.value(oracle.derivative(n, k), x), checks.DERIV_TOL))
            for (n, k, x), got in zip(self.fault_calls, faults)
        )
        return problems, failed

    def detail(self, walls):
        rounds = len(self.array_s)
        return {
            "points_per_s": (rounds * len(self.members) * self.xs.size / sum(self.array_s), "values/s"),
            "scalar_evals_per_s": (rounds * self.scalar_calls / sum(self.scalar_s), "calls/s"),
        }


class CliMix(Workload):
    """A fixed sequence of `python -m alpquad` subprocesses, one at a time.

    The commands and their (n, k) are fixed, so every seed does the same
    work; the seed draws the eval point and the integrand (three positive
    coefficients at degrees inside the rule's exactness window).
    """

    name = "cli-mix"
    ALIASES = {"ops_per_s": ("cli_calls_per_s", "calls/s"), "call_ms_p50": ("cli_call_ms_p50", "ms")}
    warm_code = "pass"
    COEFFS = ((30, 7), (25, 0), (12, 5))
    EVAL = (30, 3)
    RULES = ((30, 1), (20, 6), (27, 27))
    INTEGRATE = (10, 3)
    VERIFY_MAX_N = 8

    def __init__(self, seed: int, root: str, env: dict, **_):
        super().__init__()
        self.root, self.env = root, env
        rng = random.Random(seed)
        self.cmds = []

        def add(kind, n=None, k=None, *extra, **info):
            argv = [kind] + (["--n", str(n), "--k", str(k)] if n is not None else []) + list(extra)
            self.cmds.append(dict(argv=argv, n=n, k=k, **info))

        for (n, k), fmt in zip(self.COEFFS, ("text", "json", "csv")):
            add("coeffs", n, k, "--format", fmt, format=fmt)
        x = rng.random()
        add("eval", *self.EVAL, "--x", repr(x), x=x)
        for (n, k), fmt in zip(self.RULES, ("text", "csv", "json")):
            add("rule", n, k, "--format", fmt, format=fmt)
        n, k = self.INTEGRATE
        poly = [0] * (2 * n + 1)
        for l in rng.sample(range(2 * k - 1, 2 * n + 1), 3):
            poly[l] = rng.randint(1, 9)
        add("integrate", n, k, "--f", "poly:" + ",".join(map(str, poly)), poly=poly)
        add("verify", None, None, "--max-n", str(self.VERIFY_MAX_N), "--format", "json", max_n=self.VERIFY_MAX_N)
        self.ops_per_round = len(self.cmds)
        self.main_s: list[float] = []

    def round(self):
        out = []
        for cmd in self.cmds:
            proc = self.timed(
                subprocess.run, [sys.executable, "-m", "alpquad", *cmd["argv"]],
                cwd=self.root, env=self.env, capture_output=True, text=True,
            )
            out.append((proc.returncode, proc.stdout))
        return out

    def trace_round(self):
        """The same commands through alpquad.cli.main in this process, caches
        cleared before each call as in a fresh process."""
        out = []
        for cmd in self.cmds:
            clear_caches()
            buf = io.StringIO()
            t = clock()
            with contextlib.redirect_stdout(buf):
                code = sys.modules["alpquad.cli"].main(cmd["argv"])
            self.main_s.append(clock() - t)
            out.append((code, buf.getvalue()))
        return out

    def check(self, out):
        problems = []
        for cmd, (code, text) in zip(self.cmds, out):
            problems.extend(checks.cli_problems(cmd, code, text))
        return problems, 0


WORKLOADS = {w.name: w for w in (RuleSweep, VerifySweep, EvalGrid, CliMix)}
