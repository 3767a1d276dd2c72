"""The benchmark session looks library names up at run time: each must resolve.

perfbench/session.py is parsed, not imported, so a name that was deleted or
moved fails here instead of as an AttributeError in a traced benchmark run.
"""

import ast
import importlib
import os

import absmean
from absmean import harness

SESSION = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "session.py")


def _session_tree() -> ast.Module:
    with open(SESSION, encoding="utf-8") as fh:
        return ast.parse(fh.read(), SESSION)


def _chain(node: ast.expr) -> tuple[str, ...] | None:
    """('a', 'b', 'c') for the expression a.b.c, None unless it starts at a bare name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) else None


def test_every_traced_name_resolves():
    (wraps,) = [node.value for node in ast.walk(_session_tree()) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets)]
    entries = ast.literal_eval(wraps)
    assert len(entries) > 0
    missing = [(module, attr) for module, attr, _ in entries if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_library_attribute_the_session_reads_resolves():
    roots = {"absmean": absmean, "harness": harness}
    chains = {c for node in ast.walk(_session_tree()) if isinstance(node, ast.Attribute)
              and (c := _chain(node)) is not None and c[0] in roots}
    assert ("absmean", "approx_coefficients", "cache_info") in chains
    assert ("harness", "run_config") in chains
    missing = []
    for chain in sorted(chains):
        obj = roots[chain[0]]
        for name in chain[1:]:
            if not hasattr(obj, name):
                missing.append(".".join(chain))
                break
            obj = getattr(obj, name)
    assert missing == []
