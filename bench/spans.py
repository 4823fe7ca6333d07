"""Span tracing of the alpquad layers, from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper at
every module attribute of the package that refers to it, so calls through
re-imported names (``quadrature.family``, ``family.comp_horner``, ...) are
seen too; ``uninstall`` puts the originals back. Each call becomes a span
(name, start, end, parent, round), kept in flat arrays in memory and
written out by ``write``. The package itself is not changed; calls that do
not go through a wrapped attribute are not seen.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# span name -> (module, attribute); a name's layer is its first component
FUNCTIONS = {
    "exactpoly.inner_product": ("alpquad.exactpoly", "inner_product"),
    "family.alp_coefficients": ("alpquad.family", "alp_coefficients"),
    "family.family": ("alpquad.family", "family"),
    "family.alp_eval": ("alpquad.family", "alp_eval"),
    "family.alp_eval_recurrence": ("alpquad.family", "alp_eval_recurrence"),
    "family.alp_derivative_eval": ("alpquad.family", "alp_derivative_eval"),
    "family.aux_coefficients": ("alpquad.family", "aux_coefficients"),
    "family.routes.rodrigues": ("alpquad.family", "alp_coefficients_rodrigues"),
    "family.routes.hypergeometric": ("alpquad.family", "alp_coefficients_hypergeometric"),
    "family.routes.jacobi": ("alpquad.family", "alp_coefficients_jacobi"),
    "family.routes.reciprocity": ("alpquad.family", "reciprocity_transform"),
    "family.routes.ode_residual": ("alpquad.family", "ode_residual"),
    "horner.comp_horner": ("alpquad.horner", "comp_horner"),
    "horner.horner": ("alpquad.horner", "horner"),
    "jacobi.jacobi_eval": ("alpquad.jacobi", "jacobi_eval"),
    "jacobi.jacobi_derivative_eval": ("alpquad.jacobi", "jacobi_derivative_eval"),
    "jacobi.jacobi_shifted_coefficients": ("alpquad.jacobi", "jacobi_shifted_coefficients"),
    "quadrature.nodes": ("alpquad.quadrature", "nodes"),
    "quadrature.weights": ("alpquad.quadrature", "weights"),
    "quadrature.build_rule": ("alpquad.quadrature", "build_rule"),
    "quadrature.integrate": ("alpquad.quadrature", "integrate"),
    "verify.verify_identity_suite": ("alpquad.verify", "verify_identity_suite"),
    "verify.verify_orthogonality": ("alpquad.verify", "verify_orthogonality"),
    "verify.verify_aux_orthogonality": ("alpquad.verify", "verify_aux_orthogonality"),
    "verify.suite_passes": ("alpquad.verify", "suite_passes"),
    "cli.main": ("alpquad.cli", "main"),
}
# span name -> (module, class, method names sharing one function)
METHODS = {
    "exactpoly.Polynomial.mul": ("alpquad.exactpoly", "Polynomial", ("__mul__", "__rmul__")),
    "family.AlpFamily.eval": ("alpquad.family", "AlpFamily", ("eval",)),
}
# spans whose x argument (at this position) is counted as points: 1 per scalar
POINT_ARG = {"horner.comp_horner": 1, "jacobi.jacobi_eval": 3, "family.AlpFamily.eval": 2}
# spans whose returned list is counted as items (reports)
COUNT_RESULT = ("verify.verify_identity_suite", "verify.verify_orthogonality", "verify.verify_aux_orthogonality")
LAYERS = ("exactpoly", "family", "horner", "jacobi", "quadrature", "verify", "cli")


def _points(x) -> int:
    return int(getattr(x, "size", 1))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.round_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items: dict[str, int] = {}  # points or reports per span name
        self.round = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.items[name] = 0
        name_of, parent, round_of = self.name_of, self.parent, self.round_of
        start, end, stack, items = self.start, self.end, self._stack, self.items
        point_arg = POINT_ARG.get(name)
        count_result = name in COUNT_RESULT
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            round_of.append(self.round)
            end.append(0.0)
            if point_arg is not None:
                items[name] += _points(args[point_arg])
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_result:
                items[name] += len(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "alpquad" or key.startswith("alpquad.")]
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, (modname, clsname, attrs) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            wrapper = self._wrap(name, vars(cls)[attrs[0]])
            for attr in attrs:
                self._restore.append((cls, attr, vars(cls)[attr]))
                setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds, self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.names, 0)
        incl = dict.fromkeys(self.names, 0.0)
        self_s = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
        return calls, incl, self_s

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: id,name,start_s,end_s,parent,round."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,name,start_s,end_s,parent,round\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i},{self.names[self.name_of[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.round_of[i]}\n"
                )
