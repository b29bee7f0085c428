"""Every shim target of the traced e2e run exists (``benchmarks/e2e/tracer.py``).

The traced run wraps module attributes and methods by name, so deleting
or renaming one would otherwise fail only that run.  Each ``(module,
attribute)`` of ``SPANS`` and ``LEAVES`` is resolved here as
``Tracer._patch`` resolves it: the owner's own ``__dict__`` entry.
"""

import pytest

from benchmarks.e2e.tracer import LEAVES, SPANS, _resolve

TARGETS = [(module, attribute) for module, attribute, *_ in SPANS + LEAVES]


@pytest.mark.parametrize(
    "module_name, attribute", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS]
)
def test_tracer_target_resolves(module_name, attribute):
    owner, name = _resolve(module_name, attribute)
    assert callable(owner.__dict__[name])
