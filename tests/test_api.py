"""The package root exports exactly what the demos and the benchmark import."""

import ast
import glob
import os

import balancelab

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _names_imported_from_balancelab(paths):
    names = set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "balancelab":
                names.update(alias.name for alias in node.names)
    return names


def test_root_exports_exactly_what_demos_and_benchmark_import():
    paths = (glob.glob(os.path.join(ROOT, "demos", "*.py"))
             + glob.glob(os.path.join(ROOT, "perfbench", "**", "*.py"),
                         recursive=True))
    used = _names_imported_from_balancelab(paths)
    assert used == {
        "MonotoneGraph", "Table", "check_inverse_convergence",
        "compose_graphs", "invert_graph", "resolvent", "yosida",
        "FluxCurve", "build_parametrization", "smooth_flux", "Grid1D",
        "load_config", "solve", "validate_spec"}
    assert set(balancelab.__all__) - {"__version__"} == used
    for name in balancelab.__all__:
        assert hasattr(balancelab, name), name
