"""Truncated one-variable power series over the complex numbers.

Every coefficient computation in this package runs through degree-N jets:
a series is a finite coefficient vector c_0..c_N, with the exponential,
the quotient (truncated to the shorter operand) and evaluation.
Coefficient k is the k-th Taylor coefficient of the represented function
(c_1 = g'(0), c_2 = g''(0)/2, ...).

``series_exp`` and ``series_div`` work on (rows, N + 1) coefficient
arrays, one series per row; the methods of ``TruncatedSeries`` are
batch-of-one calls into them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Division rejects constant terms at or below this magnitude.  Legitimate
# denominators in this package always have constant term 1.
DIV_EPS = 1e-12


class NearSingularDivision(ArithmeticError):
    """Series division by a denominator with near-zero constant term."""


class NonzeroConstantTerm(ValueError):
    """Series exponential of a series whose constant term is not exactly 0."""


def series_exp(a: np.ndarray) -> np.ndarray:
    """Exponential of every row of a (rows, N + 1) coefficient array whose
    constant terms are 0 (not checked here).

    Computed from e' = a'*e coefficientwise: n e_n = sum_k k a_k e_{n-k},
    which is exact at the truncation order and costs O(N^2).
    """
    ka = a * np.arange(a.shape[1])
    e = np.zeros(ka.shape, dtype=complex)
    e[:, 0] = 1.0
    for m in range(1, a.shape[1]):
        e[:, m] = (ka[:, 1 : m + 1] * e[:, m - 1 :: -1]).sum(axis=1) / m
    return e


def series_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise quotients q with q*b == a up to the common order.

    Requires every |b_0| > DIV_EPS; solved by the forward recurrence
    q_k = (a_k - sum_{j=1..k} b_j q_{k-j}) / b_0.
    """
    b0 = b[:, 0]
    small = np.hypot(b0.real, b0.imag) <= DIV_EPS
    if small.any():
        raise NearSingularDivision(
            f"denominator constant term {complex(b0[small][0])!r} has modulus <= {DIV_EPS}"
        )
    q = np.zeros((len(a), min(a.shape[1], b.shape[1])), dtype=complex)
    q[:, 0] = a[:, 0] / b0
    for k in range(1, q.shape[1]):
        q[:, k] = (a[:, k] - (b[:, 1 : k + 1] * q[:, k - 1 :: -1]).sum(axis=1)) / b0
    return q


@dataclass(frozen=True)
class TruncatedSeries:
    """Complex power series truncated at a fixed order.

    ``coeffs`` holds c_0..c_N, so ``len(coeffs) == order + 1``.  Instances
    are immutable and safe to share.
    """

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("series needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Series quotient q with q*other == self up to the common order
        (``series_div``); requires |other_0| > DIV_EPS."""
        q = series_div(np.array([self.coeffs]), np.array([other.coeffs]))
        return TruncatedSeries(tuple(q[0].tolist()))

    def exp(self) -> "TruncatedSeries":
        """Series exponential (``series_exp``); the constant term must be
        exactly 0."""
        if self.coeffs[0] != 0:
            raise NonzeroConstantTerm(f"exp needs constant term 0, got {self.coeffs[0]!r}")
        return TruncatedSeries(tuple(series_exp(np.array([self.coeffs]))[0].tolist()))

    def eval(self, zeta: complex) -> complex:
        """Horner evaluation of the truncated polynomial at ``zeta``."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * zeta + c
        return acc

    def __call__(self, zeta: complex) -> complex:
        return self.eval(zeta)
