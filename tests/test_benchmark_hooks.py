"""The engine keeps every callable that the benchmark's layer spans wrap.

A hook whose target is gone records no span, so its layer's counters read
zero in every traced run without failing it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# hooks whose targets the engine no longer has; their metrics stay in the
# benchmark's result line, at zero
ABSENT = {"linalg.integer_row", "algebra.relation_rows", "algebra.Generators.monomials_of_degree"}


def benchmark_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


def test_every_benchmark_hook_resolves_in_the_engine():
    targets = set()
    for module, owner, attribute, *_ in benchmark_hooks():
        name = ".".join(filter(None, (module, owner, attribute)))
        targets.add(name)
        scope = importlib.import_module(f"flagcohom.{module}")
        if owner is not None:
            scope = getattr(scope, owner)
        # the tracer wraps only what the module or class itself defines
        assert (attribute in vars(scope)) == (name not in ABSENT), name
    assert ABSENT <= targets
