"""Every immutable value class refuses both setattr and del, and no
library function keeps a process-global cache."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import flab
from flab.entropy import EntropyValue, FinitePartition
from flab.fplinear import AffineSolutionSet, FpMatrix
from flab.groups import cyclic
from flab.kernels import ConvolutionKernel
from flab.words import ball, parse_word

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


def test_no_function_keeps_a_functools_cache():
    cached = []
    for info in pkgutil.iter_modules(flab.__path__):
        module = importlib.import_module(f"flab.{info.name}")
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for attr, member in members:
                if hasattr(getattr(member, "__func__", member), "cache_info"):
                    cached.append(f"{module.__name__}.{name}" + (f".{attr}" if attr else ""))
    assert not cached
