"""Every layer span the benchmark reports names a traceable library callable.

The benchmark traces the callables in each layer module's ``__all__`` (plus
one method), so a refactor that deletes or renames a traced name would leave
its per-layer metrics reading 0.  This reads only BENCHMARK.json.
"""

import importlib
import json
from pathlib import Path

import pytest

_SUFFIXES = (".calls", ".self_s", ".cold_calls", ".cold_s")
# the one traced span that is a method rather than a module-level name
_METHOD = "flaglet_transform.FlagletDecomposition.scale_energies"


def _span_names():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = set()
    for metric in spec["per_layer"]:
        for suffix in _SUFFIXES:
            if metric["name"].endswith(suffix):
                names.add(metric["name"][: -len(suffix)])
    return sorted(names)


def test_benchmark_names_spans():
    assert len(_span_names()) >= 20


@pytest.mark.parametrize("span", _span_names())
def test_span_resolves_to_a_public_callable(span):
    layer, _, name = span.partition(".")
    module = importlib.import_module(f"flaglets.{layer}")
    if span == _METHOD:
        cls, method = name.split(".")
        assert callable(getattr(getattr(module, cls, None), method, None))
        return
    assert name in module.__all__, f"{name} is not in flaglets.{layer}.__all__"
    assert callable(getattr(module, name, None))
