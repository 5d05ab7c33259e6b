"""``scripts/kernel_bench.py`` writes every result it times: a measure by
its stored form, which decodes no weight."""

import importlib.util
import json
import os

import pytest

from multconv.lifting import lift, lift_inverse

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "kernel_bench.py")


@pytest.fixture(scope="module")
def kernel_bench():
    spec = importlib.util.spec_from_file_location("kernel_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dim, size", [(3, 60), (8, 24), (64, 3)])
def test_render_writes_the_lift_cases_by_their_stored_form(kernel_bench, dim, size):
    # lifted distinct-prime measures: rays whose norms the weight decoder
    # may not factor, so ``to_json`` is not what the script writes
    lifted = lift(kernel_bench.distinct_measure(5, dim, size))
    for mu in (lifted, lift_inverse(lifted)):
        data = json.loads(kernel_bench.render(mu))
        assert (data["type"], data["dim"]) == (type(mu).__name__, mu.dim)
        parts = {s: {tuple(v): c for v, c in part} for s, part in data["parts"]}
        back = type(mu)._of(mu.dim, parts, data["den"], data["wden"])
        # equal, with its parts and keys in the stored order
        assert back == mu
        assert [list(p.items()) for p in back._parts.values()] == [list(p.items()) for p in mu._parts.values()]
