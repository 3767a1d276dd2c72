"""The benchmark session looks library names up at run time: each must resolve,
the lower-bound ones must be reached by a pipeline call, the estimators and
sizes it builds its Monte Carlo suites from must parse, and each family
attribute it reads must be a field of that family.

perfbench/session.py is parsed, not imported, so a name that was deleted or
moved, or a config key the parser no longer takes, fails here instead of as
an error in a benchmark run.
"""

import ast
import dataclasses
import functools
import importlib
import json
import os

import absmean
from absmean import harness, lowerbound

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


def _assigned(name: str):
    """The value of the session's module-level constant `name`, a literal
    expression; it may hold powers such as 10**6, which literal_eval refuses,
    so it is evaluated with no names in scope."""
    (value,) = [node.value for node in ast.walk(_session_tree()) if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)]
    return eval(compile(ast.Expression(value), SESSION, "eval"), {"__builtins__": {}})


def test_every_traced_name_resolves():
    entries = _assigned("WRAPS")
    assert len(entries) > 0
    missing = [(module, attr) for module, attr, _ in entries if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def _counting(counts: dict, key, original):
    @functools.wraps(original)
    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    return counted


def test_every_traced_lower_bound_name_is_reached(monkeypatch):
    # a refactor that bypasses a traced name would read 0 in its per-layer
    # metric instead of failing; wrapped as the tracer wraps them, every name
    # is called by a cold pipeline call or its repeat
    counts = {}
    for module_name, attr, _ in _assigned("WRAPS"):
        if module_name in ("absmean", "absmean.lowerbound"):
            module = importlib.import_module(module_name)
            counts[module_name, attr] = 0
            monkeypatch.setattr(module, attr, _counting(counts, (module_name, attr), getattr(module, attr)))
    assert counts
    lowerbound._prior_pair_data.cache_clear()
    lowerbound._pair_terms.cache_clear()
    for _ in range(2):
        absmean.lower_bound_pipeline(10**6, 1.0, k_n=10)
    assert [key for key, calls in counts.items() if calls == 0] == []


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


def test_every_benchmark_estimator_parses_at_every_benchmark_size():
    estimators, sizes = _assigned("ESTIMATORS"), _assigned("MC_SIZES")
    scenarios = [{"id": f"{workload}-{variant}-n{n}", "family": {"kind": "zero"}, "n": n,
                  "replications": replications, "estimator": spec}
                 for workload, suite in sizes.items() for n, replications in suite
                 for variant, spec in estimators.items()]
    cfg = harness.parse_config(json.dumps({"scenarios": scenarios, "seed": 1, "output_path": "unused.csv"}))
    assert len(cfg.scenarios) == len(estimators) * sum(map(len, sizes.values())) > 0


def test_every_family_field_the_session_reads_is_a_dataclass_field():
    # _iid_atoms branches on isinstance(family, harness.X) and reads family.<attr>
    # in the branch; an attribute that is not a field of X (a renamed field, or
    # one stored only by __post_init__) would first fail the benchmark's gate
    (func,) = [node for node in ast.walk(_session_tree())
               if isinstance(node, ast.FunctionDef) and node.name == "_iid_atoms"]
    reads = set()
    for branch in ast.walk(func):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Call)
                and _chain(branch.test.func) == ("isinstance",)):
            continue
        cls = _chain(branch.test.args[1])
        assert cls is not None and cls[0] == "harness" and len(cls) == 2, ast.unparse(branch.test)
        reads |= {(cls[1], node.attr) for stmt in branch.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute) and _chain(node) == ("family", node.attr)}
    assert {attr for _, attr in reads} == {"value", "k", "M", "prior"}
    missing = [(name, attr) for name, attr in sorted(reads)
               if attr not in {f.name for f in dataclasses.fields(getattr(harness, name))}]
    assert missing == []
