"""Rényi and zero-concentrated DP accounting (Mironov 2017; Bun & Steinke 2016).

Basic sequential composition charges ``k·ε`` for ``k`` mechanism runs;
advanced composition improves that to ``O(√k · ε)`` at a δ cost. The modern
accountants tracked here are tighter still for Gaussian-noise pipelines:

* **RDP** — a mechanism's privacy is the curve ``ε(α)`` of Rényi divergences;
  composition is *pointwise addition* of curves; the final curve converts to
  an (ε, δ) guarantee by minimizing ``ε(α) + log(1/δ)/(α−1)`` over orders α.
* **zCDP** — single-parameter ρ; Gaussian noise with ℓ2-sensitivity ``s`` and
  scale σ is ``ρ = s²/(2σ²)``-zCDP; composition adds ρ, and
  ``ε = ρ + 2·√(ρ·log(1/δ))``.

Also here: **analytic Gaussian calibration** (Balle & Wang 2018) — the exact
minimal σ for a target (ε, δ), found by bisection on the true Gaussian
trade-off function rather than the loose classical ``σ = √(2 ln(1.25/δ))·s/ε``
bound. Experiment E29 plots all four accountants on the same pipeline to
reproduce the canonical ordering basic > advanced > zCDP ≥ RDP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import BudgetError

__all__ = [
    "DEFAULT_ORDERS",
    "gaussian_rdp",
    "laplace_rdp",
    "randomized_response_rdp",
    "RDPAccountant",
    "gaussian_zcdp",
    "ZCDPAccountant",
    "zcdp_to_epsilon",
    "classical_gaussian_sigma",
    "analytic_gaussian_sigma",
    "gaussian_delta",
]

#: The order grid most RDP implementations use: dense at small α (tight for
#: large ε) plus a geometric tail (tight for tiny ε / many compositions).
DEFAULT_ORDERS: tuple[float, ...] = tuple(
    [1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
)


# -- per-mechanism RDP curves -------------------------------------------------


def gaussian_rdp(sigma: float, sensitivity: float = 1.0, orders: Sequence[float] = DEFAULT_ORDERS) -> np.ndarray:
    """RDP curve of the Gaussian mechanism: ε(α) = α·s²/(2σ²)."""
    if sigma <= 0:
        raise BudgetError(f"sigma must be positive, got {sigma}")
    orders = np.asarray(orders, dtype=np.float64)
    return orders * (sensitivity**2) / (2.0 * sigma**2)


def laplace_rdp(scale: float, sensitivity: float = 1.0, orders: Sequence[float] = DEFAULT_ORDERS) -> np.ndarray:
    """RDP curve of the Laplace mechanism (Mironov 2017, Table II).

    With ``b = scale/sensitivity`` (the pure-DP ε is 1/b)::

        ε(α) = (1/(α−1)) · log( (α/(2α−1))·e^{(α−1)/b} + ((α−1)/(2α−1))·e^{−α/b} )
    """
    if scale <= 0:
        raise BudgetError(f"scale must be positive, got {scale}")
    b = scale / sensitivity
    out = []
    for alpha in orders:
        if abs(alpha - 1.0) < 1e-12:
            # α→1 limit: KL divergence of two shifted Laplace distributions.
            out.append(1.0 / b + math.expm1(-1.0 / b))
            continue
        # Log-space to survive large orders: log(e^a·w1 + e^c·w2).
        log_term1 = math.log(alpha / (2 * alpha - 1)) + (alpha - 1) / b
        log_term2 = math.log((alpha - 1) / (2 * alpha - 1)) - alpha / b
        out.append(float(np.logaddexp(log_term1, log_term2)) / (alpha - 1))
    return np.asarray(out)


def randomized_response_rdp(epsilon: float, orders: Sequence[float] = DEFAULT_ORDERS) -> np.ndarray:
    """RDP curve of binary randomized response with pure-DP parameter ε."""
    if epsilon <= 0:
        raise BudgetError(f"epsilon must be positive, got {epsilon}")
    p = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    out = []
    for alpha in orders:
        if abs(alpha - 1.0) < 1e-12:
            out.append(p * math.log(p / (1 - p)) + (1 - p) * math.log((1 - p) / p))
            continue
        log_p, log_q = math.log(p), math.log(1 - p)
        log_value = np.logaddexp(
            alpha * log_p + (1 - alpha) * log_q,
            alpha * log_q + (1 - alpha) * log_p,
        )
        out.append(float(log_value) / (alpha - 1))
    return np.asarray(out)


# -- accountants ---------------------------------------------------------------


@dataclass
class RDPAccountant:
    """Compose RDP curves pointwise; convert to (ε, δ) on demand."""

    orders: tuple[float, ...] = DEFAULT_ORDERS
    _total: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if any(a <= 1.0 for a in self.orders):
            raise BudgetError("RDP orders must all exceed 1")
        if self._total is None:
            self._total = np.zeros(len(self.orders))

    def add(self, curve: np.ndarray, count: int = 1) -> "RDPAccountant":
        """Account for ``count`` runs of a mechanism with the given curve."""
        curve = np.asarray(curve, dtype=np.float64)
        if curve.shape != (len(self.orders),):
            raise BudgetError(
                f"curve has {curve.shape[0]} orders, accountant expects {len(self.orders)}"
            )
        if count < 1:
            raise BudgetError(f"count must be >= 1, got {count}")
        self._total = self._total + count * curve
        return self

    def add_gaussian(self, sigma: float, sensitivity: float = 1.0, count: int = 1) -> "RDPAccountant":
        return self.add(gaussian_rdp(sigma, sensitivity, self.orders), count)

    def add_laplace(self, scale: float, sensitivity: float = 1.0, count: int = 1) -> "RDPAccountant":
        return self.add(laplace_rdp(scale, sensitivity, self.orders), count)

    def epsilon(self, delta: float) -> float:
        """Tightest (ε, δ) conversion over the order grid (Mironov, Prop. 3)."""
        if not 0 < delta < 1:
            raise BudgetError(f"delta must be in (0, 1), got {delta}")
        orders = np.asarray(self.orders)
        candidates = self._total + math.log(1.0 / delta) / (orders - 1.0)
        return float(candidates.min())

    def best_order(self, delta: float) -> float:
        """The order achieving the minimum in :meth:`epsilon`."""
        orders = np.asarray(self.orders)
        candidates = self._total + math.log(1.0 / delta) / (orders - 1.0)
        return float(orders[int(np.argmin(candidates))])


def gaussian_zcdp(sigma: float, sensitivity: float = 1.0) -> float:
    """ρ of the Gaussian mechanism: s²/(2σ²)."""
    if sigma <= 0:
        raise BudgetError(f"sigma must be positive, got {sigma}")
    return (sensitivity**2) / (2.0 * sigma**2)


def zcdp_to_epsilon(rho: float, delta: float) -> float:
    """Standard conversion: ε = ρ + 2·√(ρ·log(1/δ))."""
    if rho < 0:
        raise BudgetError(f"rho must be non-negative, got {rho}")
    if not 0 < delta < 1:
        raise BudgetError(f"delta must be in (0, 1), got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


@dataclass
class ZCDPAccountant:
    """Additive ρ accounting for zero-concentrated DP."""

    rho: float = 0.0

    def add(self, rho: float, count: int = 1) -> "ZCDPAccountant":
        if rho < 0:
            raise BudgetError(f"rho must be non-negative, got {rho}")
        self.rho += count * rho
        return self

    def add_gaussian(self, sigma: float, sensitivity: float = 1.0, count: int = 1) -> "ZCDPAccountant":
        return self.add(gaussian_zcdp(sigma, sensitivity), count)

    def epsilon(self, delta: float) -> float:
        return zcdp_to_epsilon(self.rho, delta)


# -- Gaussian calibration -------------------------------------------------------


def normal_cdf(x: float) -> float:
    """Standard normal CDF Φ(x) = ½·erfc(−x/√2)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def classical_gaussian_sigma(epsilon: float, delta: float, sensitivity: float = 1.0) -> float:
    """The textbook bound σ = √(2·ln(1.25/δ))·s/ε (valid for ε ≤ 1)."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise BudgetError("need epsilon > 0 and delta in (0, 1)")
    return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon


def gaussian_delta(sigma: float, epsilon: float, sensitivity: float = 1.0) -> float:
    """Exact δ achieved by Gaussian noise at a given ε (Balle & Wang, Thm. 8).

    δ(ε; σ) = Φ(s/(2σ) − εσ/s) − e^ε · Φ(−s/(2σ) − εσ/s)
    """
    if sigma <= 0:
        raise BudgetError(f"sigma must be positive, got {sigma}")
    a = sensitivity / (2.0 * sigma)
    b = epsilon * sigma / sensitivity
    return float(normal_cdf(a - b) - math.exp(epsilon) * normal_cdf(-a - b))


def analytic_gaussian_sigma(
    epsilon: float,
    delta: float,
    sensitivity: float = 1.0,
    tolerance: float = 1e-10,
) -> float:
    """Minimal σ meeting (ε, δ)-DP exactly, by bisection on :func:`gaussian_delta`.

    Always ≤ the classical bound, and valid for every ε (the classical
    calibration is only proved for ε ≤ 1).
    """
    if epsilon <= 0 or not 0 < delta < 1:
        raise BudgetError("need epsilon > 0 and delta in (0, 1)")
    # gaussian_delta is strictly decreasing in sigma: bracket then bisect.
    lo = 1e-6 * sensitivity
    hi = max(classical_gaussian_sigma(min(epsilon, 1.0), delta, sensitivity), 1.0)
    while gaussian_delta(hi, epsilon, sensitivity) > delta:  # pragma: no cover - generous hi
        hi *= 2.0
    while gaussian_delta(lo, epsilon, sensitivity) < delta:
        lo *= 0.5
        if lo < 1e-300:  # pragma: no cover - defensive
            break
    while hi - lo > tolerance * hi:
        mid = 0.5 * (lo + hi)
        if gaussian_delta(mid, epsilon, sensitivity) > delta:
            lo = mid
        else:
            hi = mid
    return hi
