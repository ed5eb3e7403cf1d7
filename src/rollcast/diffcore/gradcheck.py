"""Finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .tensor import Tensor, backward, float64, no_grad


@dataclass
class GradReport:
    """Per-parameter max relative error between autodiff and central differences."""

    errors: dict = field(default_factory=dict)
    tol: float = 1e-4

    @property
    def max_error(self) -> float:
        return max(self.errors.values()) if self.errors else 0.0

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol

    def __str__(self):
        lines = [f"{name}: {err:.3e}" for name, err in sorted(self.errors.items())]
        verdict = "PASS" if self.passed else "FAIL"
        return f"GradReport({verdict} tol={self.tol:g} max={self.max_error:.3e})\n" + "\n".join(lines)


def finite_difference_grad(f: Callable[[], Tensor], param: Tensor, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to one parameter.

    f runs without graph recording: only its values are read.
    """
    base = param.data
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(f().data)
            flat[i] = orig - step
            lo = float(f().data)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def check_gradients(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor],
    tol: float = 1e-4,
    step: float = 1e-5,
) -> GradReport:
    """Compare backward() adjoints against central finite differences.

    f must be a deterministic closure over params returning a scalar Tensor.
    Both run in float64: f is called inside `float64()`, with each parameter
    upcast for the duration and its own array restored afterwards.
    """
    saved = {name: p.data for name, p in params.items()}
    report = GradReport(tol=tol)
    try:
        with float64():
            for p in params.values():
                p.data = p.data.astype(np.float64)
                p.zero_grad()
            backward(f())
            for name, p in params.items():
                analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
                numeric = finite_difference_grad(f, p, step=step)
                report.errors[name] = _max_rel_error(np.asarray(analytic), numeric)
                p.zero_grad()
    finally:
        for name, p in params.items():
            p.data = saved[name]
            p.zero_grad()
    return report
