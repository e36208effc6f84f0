"""Gaussian process regression with a Matern-5/2 anisotropic kernel.

Built for the Bayesian optimization baseline: inputs are the magnet
settings normalized to [-1, 1]^5, targets are objective values
standardized to zero mean and unit variance at fit time. Hyperparameters
(per-dimension lengthscales, signal and noise standard deviations) are
chosen by maximising the log marginal likelihood with analytic gradients,
within fixed bounds.

Cholesky factorisation failures escalate through a jitter ladder before
raising :class:`GPFitError`.

Expected improvement comes with its closed-form gradient in the inputs,
computed from the same posterior and the same EI formula as its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import ndtr

__all__ = [
    "GPFitError",
    "GaussianProcess",
    "expected_improvement",
    "expected_improvement_and_gradient",
]

_SQRT5 = math.sqrt(5.0)
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)

# Bounds in log space for (lengthscales, signal std, noise std); inputs are
# normalized so lengthscales of order 0.1..10 cover the useful range.
_LOG_BOUNDS = {
    "lengthscale": (math.log(0.05), math.log(20.0)),
    "signal_std": (math.log(1e-2), math.log(1e2)),
    "noise_std": (math.log(1e-3), math.log(1.0)),
}

# Predictive variance below this fraction of the signal variance is pure
# cancellation noise from the solve; treat it as exact interpolation.
_VARIANCE_FLOOR_FRACTION = 1e-10


class GPFitError(RuntimeError):
    """Kernel matrix not positive definite even after jitter escalation."""


def _scaled_sq_dists(X: np.ndarray, Z: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Pairwise squared distances after per-dimension lengthscale scaling."""
    Xs = X / lengthscales
    Zs = Z / lengthscales
    d2 = (
        np.sum(Xs**2, axis=1)[:, None]
        + np.sum(Zs**2, axis=1)[None, :]
        - 2.0 * Xs @ Zs.T
    )
    return np.maximum(d2, 0.0)


def _standardize(y: np.ndarray) -> np.ndarray:
    """``y`` shifted to zero mean and scaled to unit spread; a constant
    ``y`` keeps unit scale."""
    mean = float(np.mean(y))
    spread = float(np.std(y))
    scale = spread if spread > 1e-12 else 1.0
    return (y - mean) / scale


def _matern52(r: np.ndarray, signal_var: float) -> tuple[np.ndarray, ...]:
    """Kernel values ``K`` at scaled distances ``r``, with the factors
    ``near = 1 + sqrt5 r`` and ``decay = exp(-sqrt5 r)`` that its gradients
    share: ``K = signal_var * (near + 5/3 r^2) * decay``."""
    near = 1.0 + _SQRT5 * r
    decay = np.exp(-_SQRT5 * r)
    return signal_var * (near + 5.0 / 3.0 * r**2) * decay, near, decay


def _chol_with_jitter(K: np.ndarray) -> tuple[np.ndarray, float]:
    for jitter in _JITTERS:
        try:
            L = cholesky(K + jitter * np.eye(len(K)), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            continue
    raise GPFitError("kernel matrix is not positive definite")


def _nll_and_grad(
    log_theta: np.ndarray, X: np.ndarray, diffs: np.ndarray, eye: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and its gradient in log space.

    ``diffs[d]`` holds the pairwise differences ``X[:, d][:, None] -
    X[:, d][None, :]`` and ``eye`` the ``n x n`` identity; both depend on
    ``X`` alone, so a fit builds them once for all its evaluations.
    """
    n, dim = X.shape
    lengthscales = np.exp(log_theta[:dim])
    signal_var = math.exp(2.0 * log_theta[dim])
    noise_var = math.exp(2.0 * log_theta[dim + 1])

    Kf, near, decay = _matern52(np.sqrt(_scaled_sq_dists(X, X, lengthscales)), signal_var)
    K = Kf + noise_var * eye
    try:
        L = cholesky(K + 1e-12 * eye, lower=True)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(log_theta)

    alpha = cho_solve((L, True), y)
    nll = (
        0.5 * float(y @ alpha)
        + float(np.sum(np.log(np.diag(L))))
        + 0.5 * n * math.log(2.0 * math.pi)
    )

    # dNLL/dtheta = 0.5 * trace((K^-1 - alpha alpha^T) dK/dtheta)
    Kinv = cho_solve((L, True), eye)
    A = Kinv - np.outer(alpha, alpha)

    grad = np.zeros_like(log_theta)
    # dK/dlog(l_d) = signal_var * 5/3 * (1 + sqrt5 r) * exp(-sqrt5 r) * s_d
    # with s_d the d-th scaled squared distance component.
    base = signal_var * (5.0 / 3.0) * near * decay
    for d in range(dim):
        s_d = (diffs[d] / lengthscales[d]) ** 2
        grad[d] = 0.5 * float(np.sum(A * (base * s_d)))
    grad[dim] = 0.5 * float(np.sum(A * (2.0 * Kf)))
    grad[dim + 1] = 0.5 * float(np.trace(A)) * 2.0 * noise_var
    return nll, grad


@dataclass
class GaussianProcess:
    """Fitted GP over normalized inputs and standardized targets."""

    X: np.ndarray
    lengthscales: np.ndarray
    signal_std: float
    noise_std: float
    incumbent: float  # best (lowest) standardized target
    _L: np.ndarray
    _alpha: np.ndarray

    # -- construction --------------------------------------------------------

    @classmethod
    def from_hyperparameters(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        lengthscales,
        signal_std: float,
        noise_std: float,
    ) -> "GaussianProcess":
        """Condition on data with fixed hyperparameters (no optimisation)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        y_std = _standardize(y)
        ls = np.broadcast_to(np.asarray(lengthscales, dtype=float), (X.shape[1],)).copy()

        r = np.sqrt(_scaled_sq_dists(X, X, ls))
        K = _matern52(r, signal_std**2)[0] + noise_std**2 * np.eye(len(X))
        L, _ = _chol_with_jitter(K)
        alpha = cho_solve((L, True), y_std)
        return cls(
            X=X,
            lengthscales=ls,
            signal_std=float(signal_std),
            noise_std=float(noise_std),
            incumbent=float(np.min(y_std)),
            _L=L,
            _alpha=alpha,
        )

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        y: np.ndarray,
        warm_start: np.ndarray | None = None,
    ) -> "GaussianProcess":
        """Maximum marginal likelihood fit within the hyperparameter bounds.

        ``warm_start`` is a log-hyperparameter vector from a previous fit,
        used as an extra optimisation start.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(y) < 1:
            raise ValueError("at least one sample required")
        dim = X.shape[1]
        y_std = _standardize(y)

        lo_ls, hi_ls = _LOG_BOUNDS["lengthscale"]
        lo_sf, hi_sf = _LOG_BOUNDS["signal_std"]
        lo_sn, hi_sn = _LOG_BOUNDS["noise_std"]
        bounds = [(lo_ls, hi_ls)] * dim + [(lo_sf, hi_sf), (lo_sn, hi_sn)]

        starts = [
            np.concatenate([np.zeros(dim), [0.0, math.log(1e-2)]]),
            np.concatenate([np.full(dim, math.log(2.0)), [0.0, math.log(1e-1)]]),
        ]
        if warm_start is not None:
            starts.insert(0, np.clip(warm_start, [b[0] for b in bounds], [b[1] for b in bounds]))

        diffs = X.T[:, :, None] - X.T[:, None, :]
        eye = np.eye(len(X))
        best_theta = None
        best_nll = np.inf
        for start in starts:
            result = optimize.minimize(
                _nll_and_grad,
                start,
                args=(X, diffs, eye, y_std),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 80},
            )
            if result.fun < best_nll:
                best_nll = float(result.fun)
                best_theta = result.x
        assert best_theta is not None

        return cls.from_hyperparameters(
            X,
            y,
            lengthscales=np.exp(best_theta[:dim]),
            signal_std=math.exp(best_theta[dim]),
            noise_std=math.exp(best_theta[dim + 1]),
        )

    # -- inference ------------------------------------------------------------

    @property
    def log_theta(self) -> np.ndarray:
        return np.concatenate([
            np.log(self.lengthscales),
            [math.log(self.signal_std), math.log(self.noise_std)],
        ])

    def _posterior(self, U: np.ndarray) -> tuple[np.ndarray, ...]:
        """The kernel factors ``near`` and ``decay`` (see :func:`_matern52`),
        whitened cross-covariances ``V = L^-1 k``, posterior mean and
        standard deviation at the rows of ``U``."""
        signal_var = self.signal_std**2
        Ks, near, decay = _matern52(
            np.sqrt(_scaled_sq_dists(U, self.X, self.lengthscales)), signal_var
        )
        mean = Ks @ self._alpha
        V = solve_triangular(self._L, Ks.T, lower=True)
        var = signal_var - np.sum(V**2, axis=0)
        var = np.where(var < _VARIANCE_FLOOR_FRACTION * signal_var, 0.0, var)
        return near, decay, V, mean, np.sqrt(np.maximum(var, 0.0))

    def predict(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation, standardized units."""
        _, _, _, mean, std = self._posterior(np.atleast_2d(np.asarray(U, dtype=float)))
        return mean, std


def _standard_normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


def _ei(improvement: np.ndarray, std: np.ndarray) -> tuple[np.ndarray, ...]:
    """EI from the improvement ``incumbent - mean`` and the posterior std,
    with its partial derivatives in the mean and in the std.

    Points with vanishing posterior uncertainty score their deterministic
    improvement, which is zero at an already-observed incumbent; wherever
    EI is zero both partials are zero.
    """
    uncertain = std > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(uncertain, improvement / std, 0.0)
    cdf = ndtr(z)
    pdf = _standard_normal_pdf(z)
    ei = np.where(
        uncertain,
        improvement * cdf + std * pdf,
        np.maximum(improvement, 0.0),
    )
    ei = np.maximum(ei, 0.0)
    positive = ei > 0
    d_mean = np.where(positive, np.where(uncertain, -cdf, -1.0), 0.0)
    d_std = np.where(positive & uncertain, pdf, 0.0)
    return ei, d_mean, d_std


def expected_improvement(gp: GaussianProcess, U: np.ndarray) -> np.ndarray:
    """EI below the incumbent (minimisation form), standardized units."""
    mean, std = gp.predict(U)
    return _ei(gp.incumbent - mean, std)[0]


def expected_improvement_and_gradient(
    gp: GaussianProcess, U: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """EI at the rows of ``U`` (equal to :func:`expected_improvement`) and
    its gradient in ``U``, shape ``(len(U), dim)``.

    grad EI = dEI/dmean * grad mean + dEI/dstd * grad std, with
    grad mean = J^T alpha and grad std = -J^T K^-1 k / std, where
    J = dk(u, X)/du is the Matern-5/2 kernel's closed form
    -(5/3) s^2 (1 + sqrt5 r) exp(-sqrt5 r) (u - x) / l^2.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    near, decay, V, mean, std = gp._posterior(U)
    ei, d_mean, d_std = _ei(gp.incumbent - mean, std)

    # J[i, j] = dk(U[i], X[j]) / dU[i], shape (N, n, dim)
    radial = -(5.0 / 3.0) * gp.signal_std**2 * near * decay
    offsets = (U[:, None, :] - gp.X[None, :, :]) / gp.lengthscales**2
    J = radial[:, :, None] * offsets
    grad_mean = np.einsum("ijd,j->id", J, gp._alpha)
    Kinv_k = solve_triangular(gp._L, V, lower=True, trans="T")  # (n, N)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(std > 0, -1.0 / std, 0.0)
    grad_std = np.einsum("ijd,ji->id", J, Kinv_k) * scale[:, None]
    return ei, d_mean[:, None] * grad_mean + d_std[:, None] * grad_std
