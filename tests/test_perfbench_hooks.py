"""The names and formats the benchmark's tracer relies on still hold.

``perfbench/tracer.py`` rebinds each name in its ``TARGETS``, reads the
``lru_cache`` statistics of ``closed_D``/``closed_d``, and reads the
arguments and results of ``kernels.poly_mul``/``linear_product`` as
``(num, den)`` pairs; a refactor that drops or renames one of them, or
changes that format, would break ``perfbench/run.py --trace 1``.  The
tracer module is loaded here without calling its ``install()``.
"""

import importlib
import importlib.util
from pathlib import Path

from hyperhodge import kernels, values

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


def test_kernel_results_keep_the_tracer_pair_contract():
    tracer = load_tracer()
    a, b = [(1, 2), (-3, 1), (5, 7)], [(2, 3), (1, 1)]
    product = kernels.poly_mul(a, b)
    assert product == [(1, 3), (-3, 2), (-53, 21), (5, 7)]
    assert tracer._max_pair_bits(product) == 6  # 53
    assert tracer._poly_mul_mults((a, b), {}) == 6
    # (1 + t/2)(1 - 3t)(1 + 5t/7), whole and truncated at degree 1
    whole = kernels.linear_product(a)
    assert whole == [(1, 1), (-25, 14), (-23, 7), (-15, 14)]
    assert tracer._max_pair_bits(whole) == 5
    assert tracer._linear_product_mults((a,), {}) == 6
    cut = kernels.linear_product(a, max_degree=1)
    assert cut == whole[:2]
    assert tracer._max_pair_bits(cut) == 5
    assert tracer._linear_product_mults((a,), {"max_degree": 1}) == 5
