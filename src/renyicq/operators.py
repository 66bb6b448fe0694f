"""Spectral calculus for Hermitian operators with explicit support conventions.

Every matrix function here (powers, logs, exponentials) acts only on the
nonzero eigenspaces of its argument.  Eigenvalues at or below a relative
cutoff count as zero, so rank-deficient states are handled without any
epsilon-regularization at the call sites.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues <= SUPPORT_RTOL * lambda_max are treated as zero.  The
# relative threshold survives rescaling of the operator.
SUPPORT_RTOL = 1e-10
# Relative cutoff on the spectrum of a product whose supports are already
# settled: the sweep kernel's sandwiches on the compressed, positive-definite
# support and the sandwich of a divergence once orthogonality is decided from
# the supports.  It guards only against roundoff, so it is far tighter than
# SUPPORT_RTOL.
EIG_CUTOFF = 1e-14
# Eigenvalues within this absolute gap share a spectral projection when
# pinching; tensor products produce degenerate spectra that must be grouped
# deterministically.
PINCH_GAP = 1e-8
# PSD inputs may carry eigenvalues down to -PSD_TOL from roundoff; anything
# below is a genuine domain error.
PSD_TOL = 1e-10


class HermitianOperator:
    """A d x d complex Hermitian matrix with a cached spectral decomposition.

    The constructor symmetrizes its input, ``(A + A^dagger)/2``, so the
    stored matrix is exactly Hermitian.  The eigendecomposition is memoized
    on first use and reused by every matrix function; values are immutable
    after construction and safe to share between workers (a duplicated
    lazy computation under a race is pure and harmless).
    """

    __slots__ = ("mat", "_eig")

    def __init__(self, mat):
        a = np.asarray(mat, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        self.mat = 0.5 * (a + a.conj().T)
        self._eig = None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def eig(self):
        """(eigenvalues ascending, unitary of eigenvectors as columns)."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.mat)
            self._eig = (w, v)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def is_psd(self) -> bool:
        return bool(self.eigenvalues[0] >= -PSD_TOL)

    def __repr__(self):  # pragma: no cover
        return f"HermitianOperator(dim={self.dim})"


def herm(mat) -> HermitianOperator:
    """Wrap an array-like as a HermitianOperator (symmetrizing it)."""
    return mat if isinstance(mat, HermitianOperator) else HermitianOperator(mat)


class DensityOperator(HermitianOperator):
    """A PSD Hermitian operator normalized to unit trace.

    Eigenvalues below ``-PSD_TOL`` are rejected; values in ``[-PSD_TOL, 0)`` are
    clipped to zero and the spectrum is renormalized, so the stored matrix
    has exact nonnegative eigenvalues and trace 1 up to roundoff.
    """

    __slots__ = ()

    def __init__(self, mat):
        super().__init__(mat)
        w, v = np.linalg.eigh(self.mat)
        if w[0] < -PSD_TOL:
            raise ValueError(
                f"matrix is not PSD: smallest eigenvalue {w[0]:.3e} < -{PSD_TOL:.0e}"
            )
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("cannot normalize the zero operator to a state")
        w = w / total
        self.mat = (v * w) @ v.conj().T
        self._eig = (w, v)


def support_power(a: HermitianOperator, x: float) -> HermitianOperator:
    """Real power of a PSD operator taken only on its support.

    Returns sum_{lambda > tau} lambda^x P_lambda with tau = SUPPORT_RTOL *
    lambda_max; ``x = 0`` gives the support projection.  Raises ValueError
    on inputs with an eigenvalue below -PSD_TOL.
    """
    a = herm(a)
    w, v = a.eig
    if w[0] < -PSD_TOL:
        raise ValueError(
            f"support_power requires a PSD operator; smallest eigenvalue {w[0]:.3e}"
        )
    wmax = float(w[-1])
    cut = wmax * SUPPORT_RTOL
    fw = np.zeros_like(w)
    on = w > cut
    if wmax > 0.0:
        if x == 0:
            fw[on] = 1.0
        else:
            logs = x * np.log(w[on])
            # underflow to zero is fine; overflow has no double representation
            if logs.max() > 700.0:
                raise ValueError(
                    f"power {x} of eigenvalues spanning {w[on].min():.3e}.."
                    f"{wmax:.3e} overflows double precision"
                )
            fw[on] = np.exp(logs)
    out = HermitianOperator((v * fw) @ v.conj().T)
    out._eig = None
    return out


def support_projection(a: HermitianOperator) -> HermitianOperator:
    return support_power(a, 0.0)


def support_isometry(a: HermitianOperator) -> np.ndarray:
    """Orthonormal eigenvectors of ``a`` (as columns) whose eigenvalues lie
    above SUPPORT_RTOL * lambda_max, the cutoff of :func:`support_projection`."""
    w, v = herm(a).eig
    return v[:, w > float(w[-1]) * SUPPORT_RTOL]


def spectral_clusters(a: HermitianOperator):
    """Indices of eigenvalues grouped into clusters separated by > PINCH_GAP."""
    w = herm(a).eigenvalues
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] < PINCH_GAP:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [np.asarray(c) for c in clusters]


def pinch(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Block-diagonalize b with the eigenprojections of a.

    Eigenvalues of ``a`` within PINCH_GAP of each other share a projection.
    The map is trace preserving and positivity preserving.
    """
    a, b = herm(a), herm(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    w, v = a.eig
    rotated = v.conj().T @ b.mat @ v
    masked = np.zeros_like(rotated)
    for idx in spectral_clusters(a):
        block = np.ix_(idx, idx)
        masked[block] = rotated[block]
    return HermitianOperator(v @ masked @ v.conj().T)


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product with row-major index convention (i_a, i_b) -> i_a*dim_b + i_b."""
    return HermitianOperator(np.kron(herm(a).mat, herm(b).mat))


def _common_support_isometry(rho: HermitianOperator, sigma: HermitianOperator):
    """Isometry onto the common-support subspace, or None if it is zero.

    The subspace is the support of rho^0 sigma^0 rho^0, which realizes the
    vanishing-regularization limit for the log-based quantities on generic
    inputs.
    """
    pr = support_projection(rho).mat
    ps = support_projection(sigma).mat
    m = pr @ ps @ pr
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    keep = w > max(float(w[-1]), 0.0) * SUPPORT_RTOL
    if float(w[-1]) <= 0.0 or not np.any(keep):
        return None
    return u[:, keep]


def exp_log_trace(rho: HermitianOperator, sigma: HermitianOperator, alpha: float) -> float:
    """Tr exp(alpha log rho + (1-alpha) log sigma) on the common support.

    Both operators are compressed onto the support of rho^0 sigma^0 rho^0
    and the logs are taken there, where both compressions are positive
    definite.  A zero common support yields 0.
    """
    rho, sigma = herm(rho), herm(sigma)
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    for name, op in (("first", rho), ("second", sigma)):
        if not op.is_psd():
            raise ValueError(f"{name} argument must be PSD")
    v = _common_support_isometry(rho, sigma)
    if v is None:
        return 0.0
    r = v.conj().T @ rho.mat @ v
    s = v.conj().T @ sigma.mat @ v
    combo = alpha * _log_pd(r) + (1.0 - alpha) * _log_pd(s)
    w = np.linalg.eigvalsh(0.5 * (combo + combo.conj().T))
    return float(np.exp(w).sum())


def _log_pd(mat: np.ndarray) -> np.ndarray:
    """Matrix log of a positive definite compression.

    Roundoff can push a compressed eigenvalue to ~0; flooring it keeps the
    log finite and the corresponding exp contribution negligible.
    """
    w, v = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    floor = max(float(w[-1]), np.finfo(float).tiny) * 1e-300
    w = np.maximum(w, floor)
    return (v * np.log(w)) @ v.conj().T


def partial_trace(op: HermitianOperator, dims, keep: int) -> HermitianOperator:
    """Partial trace of a bipartite operator with factor dimensions ``dims``.

    ``keep=0`` keeps the first (classical) factor, ``keep=1`` the second
    (quantum) factor; the layout matches :func:`tensor`.
    """
    op = herm(op)
    k, d = dims
    if k * d != op.dim:
        raise ValueError(f"dims {dims} inconsistent with operator dimension {op.dim}")
    r = op.mat.reshape(k, d, k, d)
    if keep == 0:
        return HermitianOperator(np.einsum("xiyi->xy", r))
    if keep == 1:
        return HermitianOperator(np.einsum("xixj->ij", r))
    raise ValueError("keep must be 0 or 1")


def trace_norm(x) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian array or operator."""
    mat = x.mat if isinstance(x, HermitianOperator) else np.asarray(x)
    w = np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))
    return float(np.abs(w).sum())


def trace_distance(a, b) -> float:
    """Standard trace distance between states, 0.5 * ||a - b||_1."""
    amat = a.mat if isinstance(a, HermitianOperator) else np.asarray(a)
    bmat = b.mat if isinstance(b, HermitianOperator) else np.asarray(b)
    return 0.5 * trace_norm(amat - bmat)
