"""The ``repro`` names that the benchmark's per-layer tracer wraps.

``perfbench/layers.py`` replaces internal functions by name, and the
tier-1 suite never runs a traced benchmark, so a removed or renamed name
would otherwise fail only there. The list is read from ``layers.py``."""
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for owner, attr, label, _ in layers.PATCHES:
        assert attr in owner.__dict__, f"{label}: {owner.__name__}.{attr} is gone"
    assert callable(layers.store.iter_vertex_groups)
