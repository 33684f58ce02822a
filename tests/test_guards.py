"""Guards on the package's shape that no behavioural test would catch.

The benchmark's per-layer metrics name public functions of the package, so a
removed or renamed function must fail here rather than in the benchmark run.
Dense Kronecker products and eigendecompositions are kept to the few places
that need them: the X-form and product-form structures avoid both.
"""

import ast
import importlib
import json
from pathlib import Path

import numpy as np

import gme_lab
from gme_lab.linalg import DensityMatrix

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
LAYERS = ("linalg", "states", "gme", "separability", "boundent", "cli")
# Spans the benchmark tracer adds besides the public functions of each layer.
TRACER_SITES = {"linalg.DensityMatrix": DensityMatrix.__post_init__,
                "linalg.eigvalsh": np.linalg.eigvalsh}

SOURCE = Path(gme_lab.__file__).parent
ALLOWED = {
    "kron": {"tensor", "product_form_to_dense", "gamma_base", "sigma_base"},
    "eigvalsh": {"DensityMatrix.__post_init__", "min_eigenvalue_hermitian"},
}


def per_layer_functions() -> set[str]:
    """``<layer>.<function>`` of every per-layer metric named after a function."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    return {name.rsplit(".", 1)[0] for name in names
            if name.count(".") == 2 and name.split(".", 1)[0] in LAYERS}


def test_every_per_layer_metric_names_a_public_function_of_its_layer():
    keys = per_layer_functions()
    assert "linalg.min_eigenvalue_hermitian" in keys
    assert "separability.pt_min_eig_isotropic" in keys
    for key in sorted(keys):
        if key in TRACER_SITES:
            assert callable(TRACER_SITES[key]), key
            continue
        layer, name = key.split(".")
        module = importlib.import_module(f"gme_lab.{layer}")
        fn = getattr(module, name, None)
        assert callable(fn) and not isinstance(fn, type), key
        assert fn.__module__ == module.__name__, key


def call_sites(attr: str) -> set[str]:
    """Qualified names of the functions whose bodies mention ``<x>.<attr>`` or
    import ``attr`` by name; a module-level use reads as ``<module>``."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if ((isinstance(child, ast.Attribute) and child.attr == attr)
                    or (isinstance(child, ast.ImportFrom)
                        and any(a.name == attr for a in child.names))):
                sites.add(".".join(scope[1:]) or scope[0])
            visit(child, scope)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text()), [f"<{path.stem}>"])
    return sites


def test_kron_and_eigvalsh_only_where_allowed():
    for attr, allowed in ALLOWED.items():
        sites = call_sites(attr)
        assert sites <= allowed, (attr, sites - allowed)
    assert "tensor" in call_sites("kron")     # the scan sees what it guards
    assert "product_form_project" not in call_sites("eye")
