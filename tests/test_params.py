"""Closed-form counting: q-analogues, dimension and distance, the group and
stabilizer orders, and the validation rules of the parameter object."""

import copy
import pickle

import pytest

from agcodes.fields import field_for_order
from agcodes.params import (
    CodeParams,
    dimension_formula,
    gaussian_binomial,
    gl_order,
    group_order_formula,
    min_distance_formula,
    min_weight_count_formula,
    q_factorial,
    sl_order,
    stabilizer_order_formula,
)


def test_q_factorial():
    assert q_factorial(0, 2) == 1
    assert q_factorial(1, 5) == 1
    assert q_factorial(2, 2) == 3
    assert q_factorial(3, 2) == 21
    assert q_factorial(2, 3) == 4
    with pytest.raises(ValueError):
        q_factorial(-1, 2)


def test_gaussian_binomial():
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 2, 2) == 155
    for n in range(7):
        for k in range(n + 1):
            for q in (2, 3, 4, 5):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)
        assert gaussian_binomial(n, 0, 2) == 1
        assert gaussian_binomial(n, n, 3) == 1
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_group_orders():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 3) == 48
    assert sl_order(2, 2) == 6
    assert sl_order(2, 3) == 24
    assert sl_order(0, 5) == 1
    for n in range(4):
        for q in (2, 3, 4):
            assert gl_order(n, q) == sl_order(n, q) * (q - 1) ** min(n, 1)


def test_dimension():
    assert dimension_formula(CodeParams(2, 2, 2)) == 6
    assert dimension_formula(CodeParams(2, 2, 3)) == 10
    assert dimension_formula(CodeParams(3, 1, 2)) == 3
    assert dimension_formula(CodeParams(2, 1, 1)) == 2
    assert dimension_formula(CodeParams(5, 0, 3)) == 1


def test_min_distance():
    assert min_distance_formula(CodeParams(2, 2, 2)) == 6
    assert min_distance_formula(CodeParams(2, 2, 3)) == 24
    assert min_distance_formula(CodeParams(3, 1, 2)) == 6
    assert min_distance_formula(CodeParams(2, 1, 1)) == 1
    assert min_distance_formula(CodeParams(2, 2, 4)) == 96


def test_min_weight_count():
    assert min_weight_count_formula(CodeParams(2, 2, 2)) == 16
    assert min_weight_count_formula(CodeParams(2, 2, 3)) == 112
    assert min_weight_count_formula(CodeParams(3, 1, 2)) == 24
    assert min_weight_count_formula(CodeParams(2, 2, 4)) == 560


def test_group_and_stabilizer_orders():
    assert group_order_formula(CodeParams(2, 2, 2)) == 96
    assert stabilizer_order_formula(CodeParams(2, 2, 2)) == 6
    assert group_order_formula(CodeParams(2, 2, 3)) == 10752
    assert stabilizer_order_formula(CodeParams(2, 2, 3)) == 96
    for q in (2, 3, 4):
        for lp in range(1, 5):
            for l in range(1, lp + 1):
                p = CodeParams(q, l, lp)
                assert group_order_formula(p) == (
                    min_weight_count_formula(p) * stabilizer_order_formula(p)
                )


def test_params_validation():
    p = CodeParams(2, 2, 3)
    assert (p.m, p.delta, p.npoints) == (5, 6, 64)
    assert p.field() is field_for_order(2)
    assert CodeParams(2, 0, 3).delta == 0
    with pytest.raises(ValueError, match=r"^6 is not a prime power$"):
        CodeParams(6, 1, 1)
    with pytest.raises(ValueError, match=r"^need lp >= 1, got lp=0$"):
        CodeParams(2, 1, 0)
    with pytest.raises(ValueError, match=r"^need l >= 0, got l=-1$"):
        CodeParams(q=2, l=-1, lp=2)
    transposed = r"^need l <= lp, got l=3 > lp=2; swap them \(the transposed matrix gives the same code\)$"
    with pytest.raises(ValueError, match=transposed):
        CodeParams(2, 3, 2)


def test_params_is_a_frozen_value():
    """Equal and hashed by (q, l, lp), never equal to a bare tuple, printed
    as a dataclass would print it, and closed to assignment."""
    p = CodeParams(q=2, l=1, lp=2000)
    assert (p.q, p.l, p.lp, p.m) == (2, 1, 2000, 2001)
    assert p == CodeParams(2, 1, 2000) and hash(p) == hash(CodeParams(2, 1, 2000))
    assert p != CodeParams(2, 1, 1999) and p != CodeParams(3, 1, 2000)
    assert p != (2, 1, 2000) and (2, 1, 2000) != p
    assert len({p, CodeParams(2, 1, 2000), CodeParams(2, 2, 2000)}) == 2
    assert repr(p) == str(p) == "CodeParams(q=2, l=1, lp=2000)"
    for name in ("q", "l", "lp", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 3)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert repr(p) == "CodeParams(q=2, l=1, lp=2000)"
    assert copy.copy(p) == p == pickle.loads(pickle.dumps(p))
