import ast
import math
from pathlib import Path

import numpy as np
import pytest

from renyicq.optimize import factor, minimize_states, pack, unpack

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
    # inf below the diagonal entry 0.4 and NaN above 0.9: the searches must
    # step around both, from starts inside either region.
    def f(sigma):
        top = sigma[0, 0].real
        if top < 0.4:
            return math.inf
        if top > 0.9:
            return math.nan
        return (top - 0.6) ** 2 + abs(sigma[0, 1]) ** 2

    starts = [np.diag([0.1, 0.9]), np.diag([0.95, 0.05]), np.diag([0.1, 0.9])]
    sigma, value = minimize_states(f, starts, maxfev=4000)
    _assert_state(sigma)
    assert math.isfinite(value) and value <= 1e-12
    assert sigma[0, 0].real == pytest.approx(0.6, abs=1e-6)


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: from .{node.module or ''} import {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []
