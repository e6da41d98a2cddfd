"""The benchmark scripts read the package through names this test pins.

``bench/record.py`` and ``bench/exact_check.py`` are not run by the test
suite, so a name that leaves the package would break them silently.  The
scripts are parsed, not imported or run.
"""
import ast
from pathlib import Path

import pytest

import opacedit

BENCH = Path(__file__).resolve().parents[1] / "bench"


def package_names(source: str) -> set[str]:
    """Names imported from ``opacedit`` or read as attributes of an alias
    of it (``import opacedit as oe`` then ``oe.name``)."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "opacedit"}
        elif isinstance(node, ast.ImportFrom) and node.module == "opacedit" and not node.level:
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("script", ["record.py", "exact_check.py"])
def test_bench_scripts_resolve_in_the_package(script):
    names = package_names((BENCH / script).read_text())
    assert names, f"bench/{script} reads nothing from opacedit"
    missing = sorted(n for n in names if not hasattr(opacedit, n))
    assert not missing, f"bench/{script} uses names opacedit lacks: {missing}"

