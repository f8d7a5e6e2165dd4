"""The benchmark's tracer (bench/spans.py) still attaches to the sources.

`bench/run.py --trace 1` wraps every name in each traced module's
`__all__` and two methods of `CycleEmbedding`, then reads the spans below
for its per-layer values. A stale `__all__` entry or a removed name makes
the install raise or a span read nothing, and READ_SPANS must list every
span bench/run.py reads, so no pinned name can leave `src/` unnoticed.
"""

import ast
import sys
from pathlib import Path

import numpy as np

import scanvar
import scanvar.cli  # noqa: F401  the tracer reads every scanvar module
from scanvar.embedding import CycleEmbedding

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
from spans import MODULES, Tracer  # noqa: E402

# The spans bench/run.py reads: module.attribute or module.Class.attribute.
READ_SPANS = (
    "cli.load_model",
    "kernels.random_scan",
    "kernels.compose_cycle",
    "embedding.CycleEmbedding.realization",
    "embedding.CycleEmbedding.resolvent_solve",
    "embedding.embedding_realization",
    "embedding.diag_realization",
    "embedding.shift_realization",
    "embedding.resolvent_solve",
    "variance.summability_check",
    "variance.var_lambda_strat",
    "variance.var_lambda_rand",
    "variance.var_limit",
    "variance.finite_m_variance_exact",
    "ordering.gap_lower_bound",
    "ordering.peskun_dominates",
    "simulate.simulate",
    "seeding.derive_seed",
)


def _lookup(span: str):
    module, *path = span.split(".")
    obj = sys.modules[f"scanvar.{module}"]
    for attr in path[:-1]:
        obj = getattr(obj, attr)
    return vars(obj)[path[-1]]


def test_tracer_installs_and_uninstalls():
    namespaces = [scanvar, *(sys.modules[f"scanvar.{m}"] for m in MODULES)]
    namespaces += [CycleEmbedding, np.linalg]
    before = [dict(vars(ns)) for ns in namespaces]
    originals = {span: _lookup(span) for span in READ_SPANS}
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer._patches
        for span, original in originals.items():
            assert _lookup(span).__wrapped__ is original, span
    finally:
        tracer.uninstall()
    for ns, saved in zip(namespaces, before):
        assert vars(ns).keys() == saved.keys()
        assert all(vars(ns)[name] is value for name, value in saved.items())


def test_read_spans_are_the_spans_bench_reads():
    # the string arguments of every self_s(...) and calls(...) in bench/run.py
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    read = {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("self_s", "calls")
        for arg in node.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    }
    assert sorted(read) == sorted(READ_SPANS)
