"""The package runs on the standard library alone: sympy is a test oracle only."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# every iwa module, each name its __all__ exports, then one call of each
# kind the benchmark times
COLD_RUN = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import iwa
for mod in pkgutil.iter_modules(iwa.__path__):
    m = importlib.import_module(f"iwa.{mod.name}")
    stale = [name for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert not stale, f"iwa.{mod.name}.__all__ names what it lacks: {stale}"
from iwa.lfunctions import DirichletCharacter, gen_bernoulli, kl_series_report
from iwa.pollack import log_identity_check
from iwa.scalars import Precision
from iwa.series import IwasawaElement, Series
from iwa.signed import SignedQuadruple, factor_signed, synthesize

triv = DirichletCharacter.trivial(5)
gen_bernoulli(88, triv)
kl_series_report(DirichletCharacter.quadratic(5, 3), 1, Precision(5, 6, 5))
prec = Precision(5, 10, 32)
seed = IwasawaElement(prec, [Series.make(prec, [1, -2, 3], is_polynomial=True)] * 4)
factor_signed(synthesize(SignedQuadruple(seed, seed, seed, seed), 1), 1)
assert log_identity_check(5, 2, prec)["ok"]
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("sympy", "mpmath")))
"""


def test_a_cold_process_never_loads_sympy():
    # -I: no user site and no PYTHON* variables, so nothing else preloads it;
    # -B, since -I also drops PYTHONDONTWRITEBYTECODE: the child writes no
    # bytecode into src/
    run = subprocess.run(
        [sys.executable, "-I", "-B", "-c", COLD_RUN, str(SRC)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
