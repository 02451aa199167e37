"""No command loads scipy: quadrature has a rule of its own.

Each check runs in a fresh interpreter, since this test session has
imported scipy long before (its oracles use it).
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


def test_quadrature_grid_checks_its_run_without_loading_scipy():
    # the grid evaluates Gamma(0) of every reservoir, which quadrature gives without quad
    code = (
        "import math\n"
        "from tridephase import GammaMethod, ParameterError, SweepGrid\n"
        "fields = dict(etas=[0.2], beta_as=[0.5, math.inf], k1s=[1.0, 4.0], k2s=[16.0],\n"
        "              t_start=0.0, t_stop=3.0, t_count=5, omega_sqs=(4.0, 4.0, 4.0),\n"
        "              method=GammaMethod.NUMERIC_QUADRATURE)\n"
        "SweepGrid(xs=[0.6, 0.9], **fields)\n"
        "try:\n"
        "    SweepGrid(xs=[0.6, 1.5], **fields)\n"
        "except ParameterError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('x = 1.5 was accepted')\n"
    )
    assert scipy_modules_after(code) == []


def test_quadrature_runs_and_selfcheck_load_no_scipy():
    code = (
        "import contextlib, io, tridephase.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert tridephase.cli.main(['timescales', '--set', 'method=quadrature',\n"
        "                                '--set', 't_count=5']) == 0\n"
        "    assert tridephase.cli.main(['selfcheck']) == 0\n"
    )
    assert scipy_modules_after(code) == []


def test_reservoir_integrate_is_the_package_rule_and_each_gamma_calls_its_quad_once():
    # bench/child.py wraps reservoir.integrate.quad at start-up and reads the
    # estimate and info["neval"] of each result
    code = (
        "import tridephase.integrate, tridephase.reservoir as reservoir\n"
        "assert reservoir.integrate is tridephase.integrate\n"
        "results, quad = [], reservoir.integrate.quad\n"
        "reservoir.integrate.quad = lambda *a, **k: results.append(quad(*a, **k)) or results[-1]\n"
        "res = reservoir.ReservoirSpec(reservoir.OhmicSpectralDensity(0.2, 1.0), 2.0, 2.0)\n"
        "for t in (1.0, 1.0, 0.0, 1e-3, 7.5):\n"
        "    before = len(results)\n"
        "    value = reservoir.gamma(res, t, reservoir.GammaMethod.NUMERIC_QUADRATURE)\n"
        "    assert len(results) == before + (t > 0.0), t\n"
        "    if t > 0.0:\n"
        "        got, estimate, info = results[-1]\n"
        "        assert got == value > 0.0 and 0.0 <= estimate <= 1e-8 * value, t\n"
        "        assert type(info['neval']) is int and info['neval'] > 21, t\n"
    )
    assert scipy_modules_after(code) == []


def run_fresh(code: str) -> str:
    """The standard output of `code` in a fresh interpreter with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def test_cli_import_leaves_the_oracle_suite_to_selfcheck():
    # measure, timescales, sweep and evolve no longer compile and run tridephase.oracles
    code = (
        "import sys, tridephase.cli\n"
        "print('tridephase.oracles' in sys.modules)\n"
        "code = tridephase.cli.main(['measure', '--set', 't_count=3'])\n"
        "print(code, 'tridephase.oracles' in sys.modules)\n"
        "code = tridephase.cli.main(['selfcheck'])\n"
        "print(code, 'tridephase.oracles' in sys.modules)\n"
    )
    lines = run_fresh(code).splitlines()
    assert lines[0] == "False" and lines[-1] == "0 True"
    assert "0 False" in lines  # after a measure run
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(checks) == 6 and all(line.startswith("PASS ") for line in checks), checks
