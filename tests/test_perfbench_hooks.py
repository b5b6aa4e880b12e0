"""The names the benchmark's tracer wraps still exist in the package.

``perfbench/tracer.py`` rebinds each name in its ``TARGETS`` and reads the
``lru_cache`` statistics of ``closed_D``/``closed_d``; a refactor that drops
or renames one of them would break ``perfbench/run.py --trace 1``.  The
tracer module is loaded here without calling its ``install()``.
"""

import importlib
import importlib.util
from pathlib import Path

from hyperhodge import values

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for layer, targets in load_tracer().TARGETS.items():
        module = importlib.import_module(f"hyperhodge.{layer}")
        for target in targets:
            owner = module
            for part in target.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}.{target}"


def test_closed_forms_keep_their_cache_statistics():
    for closed in (values.closed_D, values.closed_d):
        info = closed.cache_info()
        assert info.hits >= 0 and info.misses >= 0
