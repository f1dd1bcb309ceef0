"""The per-layer tracer's contract with the package it traces.

`bench/tracer.py` names the functions it wraps in `LAYERS`; a renamed
or moved function would make `bench/run.py --trace 1` fail, so each
name is resolved here, and each layer that reports cache hits must
still be an `lru_cache`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("orderlab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for mod, funcs in layers.items():
        module = importlib.import_module(f"orderlab.{mod}")
        for name, extras in funcs.items():
            fn = getattr(module, name, None)
            assert callable(fn), f"orderlab.{mod}.{name} is gone"
            if "hits" in extras:
                assert hasattr(fn, "cache_info"), f"orderlab.{mod}.{name} is not cached"
