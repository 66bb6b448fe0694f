import ast
import math
from pathlib import Path

import numpy as np
import pytest

from renyicq import optimize
from renyicq.channels import average_output, random_cq_channel
from renyicq.optimize import factor, minimize_dmax, minimize_states, pack, unpack

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "renyicq"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_unpack_inverts_pack(k):
    rng = np.random.default_rng(k)
    ell = np.tril(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), -1)
    ell += np.diag(rng.standard_normal(k))
    theta = pack(ell)
    assert theta.shape == (k * k,) and theta.dtype == float
    assert np.array_equal(unpack(theta), ell)


def test_factor_of_rank_deficient_state():
    sigma = np.diag([1.0, 0.0]).astype(complex)
    ell = factor(sigma)
    assert np.abs(ell @ ell.conj().T - sigma).max() <= 1e-11


def _assert_state(sigma):
    assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-14)
    assert np.abs(sigma - sigma.conj().T).max() <= 1e-15
    assert np.linalg.eigvalsh(sigma).min() >= -1e-15


def test_minimize_states_finds_target():
    target = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]])

    def f(sigma):
        _assert_state(sigma)
        return float(np.linalg.norm(sigma - target) ** 2)

    sigma, value = minimize_states(f, [np.eye(2) / 2])
    _assert_state(sigma)
    assert value == f(sigma) and value <= 1e-12


def test_minimize_states_skips_non_finite_values():
    # inf below the diagonal entry 0.4 and NaN above 0.9.  A search started
    # inside either region sees a flat 1e300 and stays there; the I/2 start
    # reaches the minimum, and the best search wins.
    def f(sigma):
        top = sigma[0, 0].real
        if top < 0.4:
            return math.inf
        if top > 0.9:
            return math.nan
        return (top - 0.6) ** 2 + abs(sigma[0, 1]) ** 2

    starts = [np.diag([0.1, 0.9]), np.diag([0.95, 0.05]), np.diag([0.1, 0.9])]
    sigma, value = minimize_states(f, starts)
    _assert_state(sigma)
    assert math.isfinite(value) and value <= 1e-12
    assert sigma[0, 0].real == pytest.approx(0.6, abs=1e-6)


def test_dmax_ladder_stops_at_first_stage_without_a_step(monkeypatch):
    # A stage that takes no step leaves its start a minimum of the smoothing
    # to working precision, so the temperature ladder ends there.
    nits = []
    bfgs = optimize._bfgs

    def recorded(*args, **kwargs):
        res = bfgs(*args, **kwargs)
        nits.append(res.nit)
        return res

    monkeypatch.setattr(optimize, "_bfgs", recorded)
    w, p = random_cq_channel(2, 3, np.random.default_rng(0))
    mats = np.stack([w.output(s).mat for s in p.support])
    probs = np.array([p.probability(s) for s in p.support])
    start = average_output(w, p).mat
    value, sigma = minimize_dmax(mats, probs, start)
    _assert_state(sigma)
    assert nits[-1] == 0 and 0 not in nits[:-1]
    assert len(nits) < len(optimize._CHI_INF_TEMPS)
    linv = np.linalg.inv(np.linalg.cholesky(start))
    top = np.linalg.eigvalsh(linv @ mats @ linv.conj().T)[:, -1]
    assert value <= float(probs @ np.log(top)) - 1e-6


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module or ''} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []


def test_one_module_searches_states():
    # optimize.py runs every search over states; the scalar oracle keeps its
    # own scipy searches.  No other module imports from scipy.optimize, and
    # Nelder-Mead is gone from the package.
    importers, users, mentions = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "Nelder" in source:
            mentions.add(path.name)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
                if any((prefix + a.name).startswith("scipy.optimize") for a in node.names):
                    users.add(path.name)
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.optimize":
                if any(a.name == "minimize" for a in node.names):
                    importers.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "minimize":
                importers.add(path.name)
    assert importers == {"optimize.py", "classical.py"}
    assert users == {"optimize.py", "classical.py"}
    assert mentions == set()


def test_classical_oracle_imports_no_solver_code():
    # The scalar oracle checks the operator path, so it may use only the
    # standard numerics and the shared exception types.
    allowed = {"__future__", "math", "numpy", "scipy", ".exceptions"}
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "classical.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add("." * node.level + (module if node.level else module.split(".")[0]))
    assert imported <= allowed, sorted(imported - allowed)
