"""The call recorder and the crossover switch of tests/_calls.py."""

import types

import pytest

from nwave import exprat, transforms, verify
from nwave.exprat import ExpPoly
from nwave.spectral import initial_config, spectral_data
from nwave.verify import _P2, _Q2, _W
from nwave.wavesys import model

from _calls import forced, recorded


def test_a_call_is_recorded_before_it_runs_and_its_result_when_it_returns():
    # f sees the calls so far as it runs: its own is there without a result
    owner, seen = types.ModuleType("owner"), []

    def f(x, y=0):
        seen.append([(c.args, c.kwargs, c.returned) for c in calls])
        if x < 0:
            raise ValueError(x)
        return x + y

    owner.f = f
    with recorded("f", owner) as calls:
        assert owner.f(1, y=2) == 3
        with pytest.raises(ValueError):
            owner.f(-1)
    assert seen == [[((1,), {"y": 2}, False)], [((1,), {"y": 2}, True), ((-1,), {}, False)]]
    assert calls[0].result == 3 and not calls[1].returned
    with pytest.raises(AttributeError):
        calls[1].result


def test_every_owner_gets_its_original_back():
    originals = transforms.apply, verify.apply, vars(ExpPoly)["__mul__"]
    with recorded("apply", transforms, verify), recorded("__mul__", ExpPoly) as products:
        assert transforms.apply is not originals[0] and verify.apply is not originals[1]
        ExpPoly.const(2) * ExpPoly.term(1, 1, 0)
    assert (transforms.apply, verify.apply, vars(ExpPoly)["__mul__"]) == originals
    assert len(products) == 1 and products[0].result == ExpPoly.term(2, 1, 0)
    with pytest.raises(RuntimeError):
        with recorded("apply", transforms, verify), recorded("__mul__", ExpPoly):
            raise RuntimeError
    assert (transforms.apply, verify.apply, vars(ExpPoly)["__mul__"]) == originals


def test_one_function_bound_in_two_modules_is_recorded_at_both_bindings():
    # verify calls apply through its own binding, apply_chain through transforms'
    seed = initial_config(model("A2"), spectral_data(_W, _P2, _Q2))
    with recorded("apply", transforms, verify) as calls:
        verify.apply("A2_T1", seed)
        transforms.apply_chain(["A2_T2"], seed)
    assert [c.args[0] for c in calls] == ["A2_T1", "A2_T2"]


def test_forced_sets_the_crossovers_for_the_block_alone():
    before = exprat.PACK_SLOTS_PER_TERM, exprat.PRODUCT_PAIRS
    with forced(PACK_SLOTS_PER_TERM=10 ** 9, PRODUCT_PAIRS=0):
        assert (exprat.PACK_SLOTS_PER_TERM, exprat.PRODUCT_PAIRS) == (10 ** 9, 0)
    assert (exprat.PACK_SLOTS_PER_TERM, exprat.PRODUCT_PAIRS) == before
    with pytest.raises(RuntimeError), forced(PRODUCT_PAIRS=0):
        raise RuntimeError
    assert (exprat.PACK_SLOTS_PER_TERM, exprat.PRODUCT_PAIRS) == before
    with pytest.raises(TypeError, match="not a crossover"), forced(EVAL_PRECISION=1):
        pass
    assert exprat.EVAL_PRECISION != 1
