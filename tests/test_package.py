"""The package's names: each declared once, in its module, found on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tauforms

# tauforms.__all__ as it stood when the package imported every module
# eagerly, by the module that declares each name (or the module itself)
PUBLIC = {
    "qseries": ("QSeries", "Rational", "as_rational"),
    "forms": (
        "TAU_STRATEGIES", "GradedForm", "InternalInconsistency", "SigmaTable",
        "TauStrategyDisagreement", "bernoulli", "delta_from_eisenstein", "delta_product",
        "dim_modular", "eisenstein", "sigma_series", "sigma_table", "tau", "tau_cross_check",
        "tau_range",
    ),
    "brackets": (
        "BracketSpec", "binomial", "e2_bracket_family", "is_cuspidal", "quasi_bracket",
        "rc_bracket",
    ),
    "quasidecomp": (
        "BasisElement", "DecompositionRecord", "InconsistentSystem", "LinearSolveError",
        "NotInGradedSpace", "RankDeficientSystem", "decompose", "generator_count",
        "graded_generators", "modular_basis", "recompose", "solve_exact",
    ),
    "identities": (
        "AUDIT_FLAGGED", "EXPECTED_TRUE", "AuditFinding", "AuditReport", "ClosedTerm",
        "CongruenceRecord", "ConvolutionTerm", "EvalContext", "FitResult", "IdentityRecord",
        "PolyMN", "Registry", "Side", "VerificationReport", "audit_all", "builtin_registry",
        "certify", "check_congruence", "evaluate", "fit_identity", "make_context",
        "verify_range",
    ),
    "expr": ("EvalError", "ParseError", "eval_expr", "parse", "print_expr"),
}
PINNED = [*PUBLIC, *(name for names in PUBLIC.values() for name in names)]


def _python(script, *argv):
    """Run script in a fresh interpreter that imports tauforms from this tree."""
    src = str(Path(tauforms.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pinned_names_are_the_objects_their_modules_define():
    assert len(PINNED) == 69
    assert set(PINNED) <= set(tauforms.__all__)
    for module_name, names in PUBLIC.items():
        module = getattr(tauforms, module_name)
        assert module is sys.modules[f"tauforms.{module_name}"]
        for name in names:
            assert name in module.__all__
            assert getattr(tauforms, name) is getattr(module, name), name


def test_all_is_the_modules_and_their_declared_names():
    declared = [n for m in PUBLIC for n in getattr(tauforms, m).__all__]
    assert sorted(tauforms.__all__) == sorted([*PUBLIC, *declared])
    assert len(set(tauforms.__all__)) == len(tauforms.__all__)
    assert set(tauforms.__all__) <= set(dir(tauforms))


def test_star_import_binds_every_pinned_name():
    namespace = {}
    exec("from tauforms import *", namespace)
    for name in PINNED:
        assert namespace[name] is getattr(tauforms, name), name


@pytest.mark.parametrize("name", ["no_such_name", "_private", "__wrapped__", "cli_main"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(tauforms, name)
    with pytest.raises(ImportError):
        exec(f"from tauforms import {name}", {})


def test_names_and_modules_resolve_on_first_use():
    # a fresh interpreter: the package imports nothing until a name is used,
    # a private probe imports nothing, and a module resolves without an import
    script = (
        "import json, sys\n"
        "import tauforms\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('tauforms.'))\n"
        "steps = [loaded()]\n"
        "hasattr(tauforms, '__wrapped__'), hasattr(tauforms, '_private')\n"
        "steps.append(loaded())\n"
        "assert tauforms.forms.tau(5) == 4830\n"
        "steps.append(loaded())\n"
        "assert tauforms.tau is tauforms.forms.tau and 'tau' in vars(tauforms)\n"
        "assert tauforms.identities.builtin_registry is tauforms.builtin_registry\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))\n"
    )
    steps = json.loads(_python(script))
    assert steps[0] == steps[1] == []
    assert steps[2] == ["tauforms._value", "tauforms.forms", "tauforms.qseries"]
    assert {f"tauforms.{m}" for m in PUBLIC} <= set(steps[3])


_LOADED_AFTER = (
    "import json, sys\n"
    "from tauforms.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('tauforms'))]))\n"
)


BEYOND_FORMS = {"identities", "quasidecomp", "expr", "brackets"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["tau", "--n", "5"], BEYOND_FORMS),
        (["tau-table", "--max-n", "64", "--out", "{tmp}/t.csv"], BEYOND_FORMS),
        (["sigma", "--k", "3", "--max-n", "64", "--out", "{tmp}/s.csv"], BEYOND_FORMS),
        (["eval", "--expr", "[E4,E6]_1"], {"identities", "quasidecomp"}),
    ],
    ids=["tau", "tau-table", "sigma", "eval"],
)
def test_each_command_loads_only_what_it_runs(tmp_path, argv, absent):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, loaded = json.loads(_python(_LOADED_AFTER, *argv).splitlines()[-1])
    assert code == 0
    assert "tauforms.forms" in loaded
    assert not {f"tauforms.{m}" for m in absent} & set(loaded), loaded
