"""Exact q-expansion engine for modular and quasimodular forms.

Rational arithmetic throughout: Eisenstein series, the discriminant cusp
form, Ramanujan's tau by four independent strategies, Rankin-Cohen and
quasimodular brackets, graded decompositions, and a catalogue of
tau/divisor-sum identities that is verified, certified and audited with
zero tolerance.

Each public name is declared once, in its module's ``__all__``: on first use
(PEP 562) the package imports the modules of ``_MODULES`` in turn until one
declares it, and keeps it, so ``tau`` loads ``forms`` but not the catalogue.
"""

from importlib import import_module

__version__ = "0.1.0"

# in dependency order, so that a search imports no module it does not need
_MODULES = ("qseries", "forms", "quasidecomp", "brackets", "expr", "identities")


def __getattr__(name):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")  # which binds it here
    modules = map(__getattr__, _MODULES)
    if name == "__all__":
        value = [*_MODULES, *(n for module in modules for n in module.__all__)]
    else:
        # no private or dunder name is exported: probing one imports nothing
        found = not name.startswith("_") and next((m for m in modules if name in m.__all__), None)
        if not found:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(found, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
