"""Truncated one-variable power series over the complex numbers.

A series is a finite coefficient vector c_0..c_N, with the exponential,
the quotient (truncated to the shorter operand) and evaluation.
Coefficient k is the k-th Taylor coefficient of the represented function
(c_1 = g'(0), c_2 = g''(0)/2, ...).  Only the oracle
``starlike.coeffs_oracle`` and ``mappings.restrict_h`` use it, one series
at a time; the kernels work on coefficient arrays of their own.
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
        """Series quotient q with q*other == self up to the common order;
        requires |other_0| > DIV_EPS.

        Solved by the forward recurrence
        q_k = (a_k - sum_{j=1..k} b_j q_{k-j}) / b_0.
        """
        a, b = np.array(self.coeffs), np.array(other.coeffs)
        if abs(b[0]) <= DIV_EPS:
            raise NearSingularDivision(
                f"denominator constant term {other.coeffs[0]!r} has modulus <= {DIV_EPS}"
            )
        q = np.zeros(min(len(a), len(b)), dtype=complex)
        q[0] = a[0] / b[0]
        for k in range(1, len(q)):
            q[k] = (a[k] - (b[1 : k + 1] * q[k - 1 :: -1]).sum()) / b[0]
        return TruncatedSeries(tuple(q.tolist()))

    def exp(self) -> "TruncatedSeries":
        """Series exponential; the constant term must be exactly 0.

        Computed from e' = a'*e coefficientwise: n e_n = sum_k k a_k e_{n-k},
        which is exact at the truncation order and costs O(N^2).
        """
        if self.coeffs[0] != 0:
            raise NonzeroConstantTerm(f"exp needs constant term 0, got {self.coeffs[0]!r}")
        ka = np.array(self.coeffs) * np.arange(len(self.coeffs))
        e = np.zeros(len(ka), dtype=complex)
        e[0] = 1.0
        for m in range(1, len(e)):
            e[m] = (ka[1 : m + 1] * e[m - 1 :: -1]).sum() / m
        return TruncatedSeries(tuple(e.tolist()))

    def __call__(self, zeta: complex) -> complex:
        """Horner evaluation of the truncated polynomial at ``zeta``."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * zeta + c
        return acc
