"""The public surface: the names alpquad exports and the ones the benchmark tracer wraps."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import alpquad

REEXPORTED = ["exactpoly", "family", "jacobi", "quadrature", "verify"]
SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

PUBLIC = [
    "AlpFamily",
    "CORRECTED",
    "IdentityReport",
    "PUBLISHED",
    "Polynomial",
    "QuadratureRule",
    "RecurrenceCoefficients",
    "RootFindingError",
    "__version__",
    "alp_coefficients",
    "alp_coefficients_hypergeometric",
    "alp_coefficients_jacobi",
    "alp_coefficients_rodrigues",
    "alp_derivative_eval",
    "alp_eval",
    "alp_eval_exact",
    "alp_eval_recurrence",
    "aux_coefficients",
    "aux_eval",
    "binomial_general",
    "build_rule",
    "exactness_report",
    "expand_in_alp",
    "expected_to_pass",
    "family",
    "fit_lowering_coefficients",
    "inner_product",
    "integrate",
    "jacobi_eval",
    "jacobi_shifted_coefficients",
    "nodes",
    "ode_residual",
    "pochhammer",
    "reciprocity_transform",
    "recurrence_coefficients",
    "report_from_json",
    "reports_to_json_lines",
    "rule_to_csv",
    "rule_to_json",
    "suite_passes",
    "verify_aux_orthogonality",
    "verify_identity_suite",
    "verify_orthogonality",
    "weights",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("alpquad_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_api_and_traced_names_resolve():
    # dropping an exported name, or one the traced benchmark wraps, is an API change
    assert sorted(alpquad.__all__) == PUBLIC
    for name in alpquad.__all__:
        assert hasattr(alpquad, name), name
    spans = load_spans()
    assert spans.FUNCTIONS and spans.METHODS
    for span, (module, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, (module, cls, methods) in spans.METHODS.items():
        owner = getattr(importlib.import_module(module), cls)
        for method in methods:
            assert callable(getattr(owner, method, None)), (span, method)


def test_package_namespace_is_the_module_lists():
    # the package star-imports each module, so a name in two lists would silently shadow the other
    home = {}
    for module in REEXPORTED:
        for name in importlib.import_module(f"alpquad.{module}").__all__:
            assert name not in home, (name, home.get(name), module)
            home[name] = module
    for name in alpquad.__all__:
        if name != "__version__":
            assert getattr(alpquad, name) is getattr(sys.modules[f"alpquad.{home[name]}"], name), name
    assert alpquad.family is sys.modules["alpquad.family"].family
    public = [name for name, value in vars(alpquad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert [name for name in public if name not in alpquad.__all__] == []
