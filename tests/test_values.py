"""Every immutable value class refuses both setattr and del, the eight
value classes through their one base `values.Frozen`.  No library
function keeps a functools cache, and the process-wide memos are the
module dicts of constant facts: `words._BALLS`, `words._STEPS`,
`words._STEP_TABLES`, `groups._BUILT` and `presets._SECTIONS`."""

import importlib
import pkgutil
import random
from fractions import Fraction

import pytest

import flab
from flab.entropy import EntropyValue, FinitePartition, _MeasureSpace
from flab.finv import generator_entropy_rate
from flab.fplinear import AffineSolutionSet, FpMatrix
from flab.groups import FiniteGroup, cyclic
from flab.kernels import ConvolutionKernel
from flab.processes import BernoulliProcess
from flab.values import Frozen
from flab.words import FreeWord, WordSet, ball, parse_word

FROZEN = [FreeWord, WordSet, EntropyValue, _MeasureSpace, FinitePartition, FpMatrix, FiniteGroup, ConvolutionKernel]

VALUES = {
    "FinitePartition": (lambda: FinitePartition([Fraction(1, 2)] * 2, [0, 1]), "labels"),
    "measure space": (lambda: FinitePartition.uniform_space(3), "counts"),
    "EntropyValue": (lambda: EntropyValue.log_int(6), "_nums"),
    "EntropyValue denominator": (lambda: Fraction(1, 2) * EntropyValue.log_int(6), "_den"),
    "FreeWord": (lambda: parse_word("abA", 2), "letters"),
    "WordSet": (lambda: ball(2, 1), "_ids"),
    "FiniteGroup": (lambda: cyclic(3), "table"),
    "ConvolutionKernel": (
        lambda: ConvolutionKernel(2, 2, {parse_word("a", 2): [[1]]}),
        "coeffs",
    ),
    "AffineSolutionSet": (lambda: AffineSolutionSet(3, ["x", "y"], [1, 0], [[1, 2]]), "basis"),
    "FpMatrix": (lambda: FpMatrix(3, [[1, 2]]), "entries"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_del_is_refused(name):
    make, attr = VALUES[name]
    value = make()
    before = getattr(value, attr)
    with pytest.raises(AttributeError):
        delattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, before)
    assert getattr(value, attr) == before


def test_shared_space_survives_del_attempts():
    space = FinitePartition.uniform_space(4)
    p = FinitePartition(space, [0, 0, 1, 1])
    q = FinitePartition(space, [0, 1, 0, 1])
    with pytest.raises(AttributeError):
        del q.space.counts
    assert p.space.counts == (1, 1, 1, 1) and p.same_space(q)


def flab_modules():
    return [importlib.import_module(f"flab.{info.name}") for info in pkgutil.iter_modules(flab.__path__)]


@pytest.mark.parametrize("slot", ["_sorted", "_axes"])
def test_a_shared_ball_refuses_its_cache_slots(slot):
    b = ball(2, 1)
    with pytest.raises(AttributeError, match="^WordSet is immutable$"):
        setattr(b, slot, [])
    assert len(ball(2, 1)) == 5 and len(list(ball(2, 1))) == 5


def test_only_frozen_defines_the_refusal():
    assert all(issubclass(cls, Frozen) for cls in FROZEN)
    defining = [
        f"{module.__name__}.{name}"
        for module in flab_modules()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == module.__name__
        and {"__setattr__", "__delattr__"} & set(vars(value))
    ]
    assert defining == ["flab.values.Frozen"]


def module_dict_sizes():
    return {
        f"{module.__name__}.{name}": len(value)
        for module in flab_modules()
        for name, value in vars(module).items()
        if isinstance(value, dict) and not name.startswith("__")
    }


def test_rates_on_distinct_windows_keep_no_module_state():
    # the axis windows of a rate live on its window, not in a module dict
    rng, pool, proc = random.Random(5), list(ball(2, 3)), BernoulliProcess(2, 2)
    before, seen = module_dict_sizes(), set()
    while len(seen) < 300:
        W = WordSet(2, rng.sample(pool, rng.randint(1, 6)))
        if W.ids() not in seen:
            seen.add(W.ids())
            generator_entropy_rate(proc, rng.choice([1, 2]), W)
    assert module_dict_sizes() == before


def test_no_function_keeps_a_functools_cache():
    cached = []
    for module in flab_modules():
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for attr, member in members:
                if hasattr(getattr(member, "__func__", member), "cache_info"):
                    cached.append(f"{module.__name__}.{name}" + (f".{attr}" if attr else ""))
    assert not cached
