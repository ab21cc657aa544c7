import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tauforms
from tauforms import (
    BracketSpec,
    CongruenceRecord,
    GradedForm,
    QSeries,
    Side,
    eisenstein,
    make_context,
    verify_range,
)
from tauforms.expr import Add, Atom, Deriv, Lit, Mul, Sub, parse
from tauforms.identities import EvalContext, parse_record


def test_import_loads_neither_dataclasses_nor_inspect():
    # every CLI command starts a fresh interpreter; the value classes are
    # written out, so starting one compiles no dataclass machinery
    src = Path(tauforms.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, tauforms, tauforms.cli; tauforms.builtin_registry(); "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_reprs_are_pinned(registry):
    # the text a frozen dataclass printed, field by field
    assert repr(eisenstein(4, 3)) == (
        "GradedForm(series=QSeries(N=3; 1, 240, 2160, 6720), weight=4, depth=0)"
    )
    assert repr(registry.by_id["thm2.7.i"].rhs.closed[1]) == (
        "ClosedTerm(coefficient=Fraction(-691, 144), n_power=1, sigma=9)"
    )
    assert repr(registry.by_id["eq1.2"].rhs.conv[0]) == (
        "ConvolutionTerm(coefficient=Fraction(-540, 1), n_divisor=0, "
        "poly=(((1, 1), 1), ((2, 0), -1)), left=3, right=3)"
    )
    assert repr(verify_range(registry.by_id["thm2.7.i"], 40, make_context(40))) == (
        "VerificationReport(identity_id='thm2.7.i', status='failed', limit=40, "
        "first_failure=(2, Fraction(-24, 1), Fraction(58729, 864)), certified=None, "
        "certification_bound=None, detail='')"
    )
    assert repr(Add(Atom("E4"), Lit(Fraction(1, 2)))) == (
        "Add(left=Atom(name='E4'), right=Lit(value=Fraction(1, 2)))"
    )


def test_equal_values_hash_equal(registry):
    pairs = [
        (eisenstein(4, 3), GradedForm(QSeries([1, 240, 2160, 6720]), 4)),
        (parse("E4*D(E6) - [E4, E6]_1"), parse("E4 * D(E6) - [E4,E6]_1")),
        (registry.by_id["eq1.1"], parse_record("eq1.1", registry.by_id["eq1.1"].anchor)),
        (BracketSpec(1, 4, 0, 6, 0), BracketSpec(1, 4, 0, 6, 0)),
    ]
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b)
    assert eisenstein(4, 3) != eisenstein(4, 3)._replace(depth=1)


def test_equality_requires_the_same_class():
    x, y = Atom("E4"), Atom("E6")
    assert Add(x, y) != Sub(x, y) and Add(x, y) != Mul(x, y)
    assert Add(x, y) == Add(x, y) and Add(x, y) != Add(y, x)
    assert Add(x, y) != (x, y)


def test_what_a_context_has_built_is_left_out():
    ctx, fresh = make_context(40), make_context(40)
    ctx.source(3)
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == "EvalContext(limit=40)"
    assert ctx != make_context(41)


def test_fields_cannot_be_assigned_or_deleted(registry):
    values = [eisenstein(4, 3), Atom("E4"), registry.by_id["eq1.1"], make_context(4), Side()]
    for value in values:
        with pytest.raises(AttributeError):
            value.weight = 2
        with pytest.raises(AttributeError):
            del value.__match_args__
        for name in value.__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_validation_errors_are_unchanged():
    one = QSeries.one(3)
    for args, message in [
        ((one, 4, -1), "depth bound must be non-negative"),
        ((one, 3), "weight must be even and non-negative, got 3"),
        ((one, -2), "weight must be even and non-negative, got -2"),
        ((one, 4, 3), "depth bound 3 exceeds weight/2 = 2"),
        ((one, None, -1), "depth bound must be non-negative"),
    ]:
        with pytest.raises(ValueError) as info:
            GradedForm(*args)
        assert str(info.value) == message
    for args, message in [
        ((-1, 4, 0, 6, 0), "bracket order must be non-negative"),
        ((1, 3, 0, 6, 0), "left weight must be even and >= 2, got 3"),
        ((1, 4, 3, 6, 0), "left depth 3 outside 0..2"),
        ((1, 4, 0, 0, 0), "right weight must be even and >= 2, got 0"),
        ((1, 4, 0, 6, -1), "right depth -1 outside 0..3"),
    ]:
        with pytest.raises(ValueError) as info:
            BracketSpec(*args)
        assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        CongruenceRecord("x", "a", Side(), Side(), 24, (8, 4))
    assert str(info.value) == "x: stated factorisation (8, 4) != 24"
    # _replace builds through the constructor, so it validates too
    with pytest.raises(ValueError, match="depth bound 3 exceeds"):
        eisenstein(4, 3)._replace(depth=3)


def test_copies_and_pickles_rebuild_equal_values(registry):
    record = registry.by_id["cor2.8.i"]
    for value in (record, eisenstein(4, 3), parse("D^2(E4) + 1/2"), make_context(4)):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)
    clone = pickle.loads(pickle.dumps(registry))
    assert clone == registry and clone.by_id.keys() == registry.by_id.keys()


def test_match_args_name_the_positional_fields():
    match parse("D^2(E4)"):
        case Deriv(times, Atom(name)):
            assert (times, name) == (2, "E4")
        case _:
            pytest.fail("positional patterns do not match the fields")
    assert EvalContext.__match_args__ == ("limit",)
    assert Side.__match_args__ == ("closed", "conv")
