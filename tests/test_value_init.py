"""The one constructor on Value: every value class, through its own
constructor or the base's, takes its fields positionally or by keyword,
fills omitted trailing fields from its defaults, and refuses a missing,
unknown, repeated or extra argument."""

from fractions import Fraction

import pytest

from tauforms import QSeries, eisenstein
from tauforms._value import Value
from tauforms.brackets import BracketSpec
from tauforms.expr import Add, Atom, Bracket, Deriv, Lit, Mul, Phi, Sub, _Binary
from tauforms.forms import GradedForm, SigmaTable
from tauforms.identities import (
    EXPECTED_TRUE,
    AuditEntry,
    AuditFinding,
    AuditReport,
    ClosedTerm,
    CongruenceRecord,
    ConvolutionTerm,
    EvalContext,
    FitResult,
    FittedCoefficient,
    IdentityRecord,
    Registry,
    Side,
    VerificationReport,
)
from tauforms.quasidecomp import BasisElement, DecompositionRecord


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


_E4, _E6 = Atom("E4"), Atom("E6")
_IDENTITY = IdentityRecord("eq", "tau = tau", Side(), Side())
_CONGRUENCE = CongruenceRecord("cong", "tau == tau", Side(), Side(), 24, (8, 3))

# class -> (its required fields, the defaults of the fields after them)
SAMPLES = {
    GradedForm: ((QSeries.one(3), 4), (0,)),
    SigmaTable: ((3, (0, 1, 9, 28)), ()),
    BracketSpec: ((1, 4, 0, 6, 0), ()),
    BasisElement: (("E4", eisenstein(4, 3)), ()),
    DecompositionRecord: ((4, 0, (("E4", Fraction(1)),)), ()),
    Lit: ((Fraction(1, 2),), ()),
    Atom: (("E4",), ()),
    Deriv: ((2, _E4), ()),
    _Binary: ((_E4, _E6), ()),
    Add: ((_E4, _E6), ()),
    Sub: ((_E4, _E6), ()),
    Mul: ((_E4, _E6), ()),
    Bracket: ((_E4, _E6, 1), ()),
    Phi: ((1, Atom("E2"), 2, 1, _E4, 4, 0), ()),
    ClosedTerm: ((Fraction(-691, 864), 0, 9), ()),
    ConvolutionTerm: ((Fraction(1), 0, (((0, 0), 1),), 1, 3), ()),
    Side: ((), ((), ())),
    IdentityRecord: (("eq", "tau = tau", Side(), Side()), (EXPECTED_TRUE,)),
    CongruenceRecord: (("cong", "tau == tau", Side(), Side(), 24, (8, 3)), (1,)),
    Registry: (((_IDENTITY,), (_CONGRUENCE,)), ()),
    VerificationReport: (("eq", "verified"), (None, None, None, None, "")),
    EvalContext: ((40,), ()),
    FittedCoefficient: (("c", Fraction(1), Fraction(2)), ()),
    FitResult: (("eq", True), ((), "")),
    AuditFinding: (("f", "1", "2", "why"), ()),
    AuditEntry: (("eq", "tau = tau", EXPECTED_TRUE, "verified", None), (None, None)),
    AuditReport: ((40, (), (), ()), ()),
}
CLASSES = list(_value_classes())
_ids = [cls.__name__ for cls in CLASSES]


def test_every_value_class_has_a_sample():
    assert set(CLASSES) == set(SAMPLES)


def test_only_validating_classes_write_a_constructor():
    own = {cls.__name__ for cls in CLASSES if "__init__" in vars(cls)}
    assert own == {"GradedForm", "BracketSpec", "CongruenceRecord", "Registry", "EvalContext"}


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_positional_and_keyword_construction_agree(cls):
    required, defaults = SAMPLES[cls]
    full = required + defaults
    names = cls.__match_args__
    assert len(names) == len(full)
    value = cls(*full)
    assert value._astuple() == full
    assert cls(**dict(zip(names, full))) == value
    assert cls(*full[:1], **dict(zip(names[1:], full[1:]))) == value


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_omitted_trailing_fields_take_their_defaults(cls):
    required, defaults = SAMPLES[cls]
    value = cls(*required)
    assert value._astuple()[len(required) :] == defaults
    assert value == cls(*required, *defaults)
    names = cls.__match_args__
    assert cls(**dict(zip(names, required))) == value


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_bad_arguments_raise_type_errors_naming_the_class(cls):
    required, defaults = SAMPLES[cls]
    full = required + defaults
    names = cls.__match_args__
    cases = [
        ((*full,), {"no_such_field": 1}, "no_such_field"),
        ((*full[:1],), {names[0]: full[0]}, names[0]),
        ((*full, None), {}, None),
    ]
    if required:
        cases.append(((*required[:-1],), {}, names[len(required) - 1]))
    for args, kwargs, name in cases:
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert cls.__name__ in str(info.value)
        assert name is None or repr(name) in str(info.value)


@pytest.mark.parametrize("cls", CLASSES, ids=_ids)
def test_replace_of_each_field_round_trips(cls):
    required, defaults = SAMPLES[cls]
    value = cls(*required, *defaults)
    stores = cls.__init__ is Value.__init__  # no checks: any value is stored
    marker = object()
    for name in cls.__match_args__:
        assert value._replace(**{name: getattr(value, name)}) == value
        if stores:
            changed = value._replace(**{name: marker})
            assert getattr(changed, name) is marker and changed != value
            assert changed._replace(**{name: getattr(value, name)}) == value
