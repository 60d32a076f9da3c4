"""From-scratch L1-regularized logistic regression (the LIBLINEAR stand-in).

The paper "used the LIBLINEAR package to learn L1-regularized models of
logistic regression" whose sparsity makes campaign predictions depend on a
handful of HTML features (Section 4.2.2).  LIBLINEAR is not available here,
so this module implements the same estimator: binary L1 logistic regression
fit by proximal gradient (ISTA) with backtracking line search, wrapped
one-vs-rest for multiclass.  The bias term is unregularized, as in
LIBLINEAR's formulation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def _log1pexp(z: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(z))."""
    out = np.empty_like(z)
    small = z < 30
    out[small] = np.log1p(np.exp(z[small]))
    out[~small] = z[~small]
    return out


def soft_threshold(values: np.ndarray, threshold: float) -> np.ndarray:
    return np.sign(values) * np.maximum(np.abs(values) - threshold, 0.0)


class L1LogisticRegression:
    """Binary classifier: min (1/n) Σ log(1+exp(-y·f(x))) + lam·||w||₁."""

    def __init__(self, lam: float = 1e-3, max_iter: int = 300, tol: float = 1e-6):
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.lam = lam
        self.max_iter = max_iter
        self.tol = tol
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self.n_iter_: int = 0

    # ------------------------------------------------------------------ #

    def _objective(self, X, y: np.ndarray, w: np.ndarray, b: float) -> float:
        margins = -y * (X @ w + b)
        loss = float(np.mean(_log1pexp(margins)))
        return loss + self.lam * float(np.abs(w).sum())

    def _gradient(self, X, y: np.ndarray, w: np.ndarray, b: float):
        z = y * (X @ w + b)
        coeff = -y * _sigmoid(-z) / len(y)
        grad_w = X.T @ coeff
        grad_w = np.asarray(grad_w).ravel()
        grad_b = float(np.sum(coeff))
        return grad_w, grad_b

    def fit(self, X, y: Sequence[int]) -> "L1LogisticRegression":
        """X: (n, d) sparse or dense; y: labels in {-1, +1} (or {0, 1}).

        The proximal loop carries the whole-matrix products ``X @ w + b``
        and ``|w|_1`` across iterations instead of recomputing them inside
        :meth:`_objective` / :meth:`_gradient`: the gradient's matvec
        reuses the margins computed when the iterate was accepted, cutting
        a third of the matvecs per iteration and keeping the per-class
        fits inside GIL-releasing BLAS/SciPy kernels (which is what lets
        ``OneVsRestL1Logistic``'s thread pool scale at small problem
        sizes).  Recomputing ``X @ w + b`` with identical inputs yields
        identical bits, so coefficients are bit-identical to the
        unfactored loop — a test asserts this against a line-for-line
        reference implementation.
        """
        y = np.asarray(y, dtype=np.float64)
        unique = set(np.unique(y).tolist())
        if unique <= {0.0, 1.0}:
            y = 2.0 * y - 1.0
        elif not unique <= {-1.0, 1.0}:
            raise ValueError(f"labels must be binary, got {sorted(unique)}")
        n, d = X.shape
        lam = self.lam
        w = np.zeros(d)
        b = 0.0
        step = 1.0
        Xwb = X @ w + b
        l1 = float(np.abs(w).sum())
        objective = float(np.mean(_log1pexp(-y * Xwb))) + lam * l1
        for iteration in range(self.max_iter):
            z = y * Xwb
            coeff = -y * _sigmoid(-z) / len(y)
            grad_w = np.asarray(X.T @ coeff).ravel()
            grad_b = float(np.sum(coeff))
            # Backtracking proximal step.
            improved = False
            for _ in range(40):
                w_new = soft_threshold(w - step * grad_w, step * self.lam)
                b_new = b - step * grad_b
                Xwb_new = X @ w_new + b_new
                l1_new = float(np.abs(w_new).sum())
                new_objective = float(np.mean(_log1pexp(-y * Xwb_new))) + lam * l1_new
                delta = w_new - w
                quad = (
                    objective
                    - self.lam * l1
                    + float(grad_w @ delta)
                    + grad_b * (b_new - b)
                    + (float(delta @ delta) + (b_new - b) ** 2) / (2 * step)
                    + self.lam * l1_new
                )
                if new_objective <= quad + 1e-12:
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            converged = objective - new_objective < self.tol * max(1.0, abs(objective))
            w, b, objective = w_new, b_new, new_objective
            Xwb, l1 = Xwb_new, l1_new
            self.n_iter_ = iteration + 1
            if converged:
                break
            step = min(step * 1.5, 1e4)  # gentle step recovery
        self.weights = w
        self.bias = b
        return self

    def decision_function(self, X) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("model not fitted")
        return np.asarray(X @ self.weights).ravel() + self.bias

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(int)

    def nonzero_weights(self) -> int:
        if self.weights is None:
            return 0
        return int(np.count_nonzero(self.weights))


class OneVsRestL1Logistic:
    """Multiclass wrapper: one binary L1 model per class, probabilities
    normalized across classes."""

    def __init__(
        self,
        lam: float = 1e-3,
        max_iter: int = 300,
        tol: float = 1e-6,
    ):
        self.lam = lam
        self.max_iter = max_iter
        self.tol = tol
        self.classes_: List[str] = []
        self._models: Dict[str, L1LogisticRegression] = {}

    def _fit_one(self, X, y_all: np.ndarray, cls: str) -> L1LogisticRegression:
        y = np.where(y_all == cls, 1.0, -1.0)
        return L1LogisticRegression(self.lam, self.max_iter, self.tol).fit(X, y)

    def fit(self, X, labels: Sequence[str]) -> "OneVsRestL1Logistic":
        labels = list(labels)
        if X.shape[0] != len(labels):
            raise ValueError("X rows and labels length differ")
        self.classes_ = sorted(set(labels))
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        y_all = np.asarray(labels, dtype=object)
        self._models = {cls: self._fit_one(X, y_all, cls) for cls in self.classes_}
        return self

    def decision_matrix(self, X) -> np.ndarray:
        scores = np.column_stack(
            [self._models[cls].decision_function(X) for cls in self.classes_]
        )
        return scores

    def predict_proba(self, X) -> np.ndarray:
        """Per-class sigmoid scores normalized to sum to one per row."""
        raw = _sigmoid(self.decision_matrix(X))
        totals = raw.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return raw / totals

    def predict(self, X) -> List[str]:
        scores = self.decision_matrix(X)
        indices = np.argmax(scores, axis=1)
        return [self.classes_[i] for i in indices]

    def predict_with_confidence(self, X) -> List[Tuple[str, float]]:
        """(best class, confidence) per row.

        Confidence is the winning class's *raw* sigmoid score, not the
        normalized probability: a page from outside the training universe
        scores low against every one-vs-rest model, so thresholding raw
        scores leaves it unclassified (the paper's "unknown" PSRs), whereas
        normalized probabilities always sum to one and would overstate it.
        """
        raw = _sigmoid(self.decision_matrix(X))
        indices = np.argmax(raw, axis=1)
        return [
            (self.classes_[i], float(raw[row, i]))
            for row, i in enumerate(indices)
        ]

    def sparsity(self) -> Dict[str, int]:
        """Nonzero feature count per class — the interpretability the paper
        highlights ('a handful of HTML features')."""
        return {cls: model.nonzero_weights() for cls, model in self._models.items()}
