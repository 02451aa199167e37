"""scipy is loaded on the first quadrature, not at start-up.

Each check runs in a fresh interpreter, since this test session has
imported scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(code: str) -> list[str]:
    """The scipy modules loaded once `code` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(*settings: str) -> str:
    argv = ["measure", "--set", "t_count=3", "--set", "measures=[\"gmc\",\"l1_coherence\"]"]
    for setting in settings:
        argv += ["--set", setting]
    return (
        "import contextlib, io, tridephase.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert tridephase.cli.main({argv!r}) == 0\n"
    )


def test_cli_import_loads_no_scipy():
    assert scipy_modules_after("import tridephase.cli") == []


def test_zero_t_run_loads_no_scipy():
    assert scipy_modules_after(cli_run("method=zero_t")) == []


def test_exact_run_at_finite_temperature_loads_no_scipy():
    assert scipy_modules_after(cli_run("method=exact", "beta_a=[0.5,40]", "k1=4")) == []


def test_one_quadrature_gamma_loads_scipy_integrate():
    code = (
        "from tridephase import GammaMethod, OhmicSpectralDensity, ReservoirSpec, gamma\n"
        "res = ReservoirSpec(OhmicSpectralDensity(0.2, 1.0), 2.0, 2.0)\n"
        "assert gamma(res, 1.0, GammaMethod.NUMERIC_QUADRATURE) > 0\n"
    )
    assert "scipy.integrate" in scipy_modules_after(code)


def test_reservoir_integrate_is_scipy_integrate_and_its_quad_is_called():
    # bench/child.py wraps reservoir.integrate.quad at start-up
    code = (
        "import scipy.integrate, tridephase.reservoir as reservoir\n"
        "assert reservoir.integrate is scipy.integrate\n"
        "calls, quad = [], reservoir.integrate.quad\n"
        "reservoir.integrate.quad = lambda *a, **k: calls.append(1) or quad(*a, **k)\n"
        "res = reservoir.ReservoirSpec(reservoir.OhmicSpectralDensity(0.2, 1.0), 2.0, 2.0)\n"
        "reservoir.gamma(res, 1.0, reservoir.GammaMethod.NUMERIC_QUADRATURE)\n"
        "assert calls == [1]\n"
    )
    assert "scipy.integrate" in scipy_modules_after(code)
