"""Kernel support-vector machines trained in the primal.

By the representer theorem the SVM decision function is
``f(x) = sum_i beta_i K(x_i, x) + b``; we optimize the regularized primal

``0.5 * beta^T K beta + C * sum_i loss(y_i, f(x_i))``

directly over ``(beta, b)`` with L-BFGS, using smoothed losses (squared
hinge for SVC, smoothed epsilon-insensitive for SVR) so the objective is
differentiable.  This avoids hand-rolled SMO while producing the same
class of models the paper evaluates; inputs should be standardized
(:class:`repro.ml.preprocessing.StandardScaler`) before fitting.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_X_y

__all__ = ["SVC", "SVR", "rbf_kernel", "linear_kernel"]


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Gaussian kernel matrix ``exp(-gamma * ||a - b||^2)``."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


def linear_kernel(A: np.ndarray, B: np.ndarray, gamma: float = 1.0) -> np.ndarray:  # noqa: ARG001 — uniform kernel interface
    """Plain inner-product kernel (gamma ignored)."""
    return A @ B.T


class _BaseKernelMachine(BaseEstimator):
    """Shared kernel plumbing and L-BFGS driver."""

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        max_iter: int = 300,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if kernel not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.C = float(C)
        self.kernel = kernel
        self.gamma = gamma
        self.max_iter = int(max_iter)

    def _resolve_gamma(self, X: np.ndarray) -> float:
        if self.gamma == "scale":
            var = float(X.var())
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        gamma = float(self.gamma)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return gamma

    def _kernel_matrix(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        fn = rbf_kernel if self.kernel == "rbf" else linear_kernel
        return fn(A, B, self.gamma_)

    def _optimize(self, K: np.ndarray, loss_grad) -> tuple[np.ndarray, float]:
        """Minimize 0.5 b^T K b + C * loss(K b + b0) over (beta, b0)."""
        # Imported where it is used: scipy is most of ``import repro``'s cost.
        from scipy.optimize import minimize

        n = K.shape[0]

        def objective(theta):
            beta, b0 = theta[:n], theta[n]
            f = K @ beta + b0
            loss, dloss = loss_grad(f)
            Kbeta = K @ beta
            value = 0.5 * float(beta @ Kbeta) + self.C * loss
            grad_beta = Kbeta + self.C * (K @ dloss)
            grad_b0 = self.C * float(dloss.sum())
            return value, np.concatenate([grad_beta, [grad_b0]])

        result = minimize(
            objective,
            np.zeros(n + 1),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        return result.x[:n], float(result.x[n])

    def _decision(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("beta_")
        X = check_array(X)
        return self._kernel_matrix(X, self.X_train_) @ self.beta_ + self.intercept_


class SVC(_BaseKernelMachine):
    """Binary kernel classifier with squared-hinge loss."""

    def fit(self, X, y) -> "SVC":
        """Fit on binary labels (any two distinct values)."""
        X, y = check_X_y(X, y)
        self.classes_ = np.unique(y)
        if self.classes_.shape[0] != 2:
            raise ValueError(f"SVC is binary; got {self.classes_.shape[0]} classes")
        y_pm = np.where(y == self.classes_[1], 1.0, -1.0)
        self.gamma_ = self._resolve_gamma(X)
        self.X_train_ = X
        K = self._kernel_matrix(X, X)

        def loss_grad(f):
            margin = 1.0 - y_pm * f
            active = margin > 0
            loss = float(np.sum(margin[active] ** 2))
            dloss = np.where(active, -2.0 * y_pm * margin, 0.0)
            return loss, dloss

        self.beta_, self.intercept_ = self._optimize(K, loss_grad)
        return self

    def decision_function(self, X) -> np.ndarray:
        """Signed margin scores (positive favours ``classes_[1]``)."""
        return self._decision(X)

    def predict(self, X) -> np.ndarray:
        """Predicted class per sample."""
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])


class SVR(_BaseKernelMachine):
    """Kernel regressor with smoothed epsilon-insensitive loss."""

    def __init__(
        self,
        C: float = 1.0,
        kernel: str = "rbf",
        gamma: float | str = "scale",
        max_iter: int = 300,
        epsilon: float = 0.01,
        smoothing: float = 1e-3,
    ):
        super().__init__(C=C, kernel=kernel, gamma=gamma, max_iter=max_iter)
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.epsilon = float(epsilon)
        self.smoothing = float(smoothing)

    def fit(self, X, y) -> "SVR":
        """Fit on a continuous target."""
        X, y = check_X_y(X, y)
        y = np.asarray(y, dtype=float)
        self.gamma_ = self._resolve_gamma(X)
        self.X_train_ = X
        K = self._kernel_matrix(X, X)
        eps, mu = self.epsilon, self.smoothing

        def loss_grad(f):
            r = f - y
            excess = np.maximum(np.abs(r) - eps, 0.0)
            # Huber-smooth the epsilon-insensitive hinge near the kink.
            quad = excess < mu
            loss = float(
                np.sum(np.where(quad, 0.5 * excess**2 / mu, excess - 0.5 * mu))
            )
            slope = np.where(quad, excess / mu, 1.0)
            dloss = np.sign(r) * np.where(np.abs(r) > eps, slope, 0.0)
            return loss, dloss

        self.beta_, self.intercept_ = self._optimize(K, loss_grad)
        return self

    def predict(self, X) -> np.ndarray:
        """Predicted target per sample."""
        return self._decision(X)
