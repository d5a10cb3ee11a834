"""Truncated one-variable power series over the complex numbers.

Every coefficient computation in this package runs through degree-N jets:
a series is a finite coefficient vector c_0..c_N, with the exponential,
the quotient (truncated to the shorter operand) and evaluation.
Coefficient k is the k-th Taylor coefficient of the represented function
(c_1 = g'(0), c_2 = g''(0)/2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_ORDER = 7

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
        """Series quotient q with q*other == self up to the common order.

        Requires |other_0| > DIV_EPS; solved by the forward recurrence
        q_k = (a_k - sum_{j=1..k} b_j q_{k-j}) / b_0.
        """
        b0 = other.coeffs[0]
        if abs(b0) <= DIV_EPS:
            raise NearSingularDivision(
                f"denominator constant term {b0!r} has modulus <= {DIV_EPS}"
            )
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        q: list[complex] = []
        for k in range(n + 1):
            acc = a[k]
            for j in range(1, k + 1):
                acc -= b[j] * q[k - j]
            q.append(acc / b0)
        return TruncatedSeries(tuple(q))

    def exp(self) -> "TruncatedSeries":
        """Series exponential; the constant term must be exactly 0.

        Computed from e' = a'*e coefficientwise: n e_n = sum_k k a_k e_{n-k},
        which is exact at the truncation order and costs O(N^2).
        """
        a = self.coeffs
        if a[0] != 0:
            raise NonzeroConstantTerm(f"exp needs constant term 0, got {a[0]!r}")
        n = self.order
        e: list[complex] = [1 + 0j]
        for m in range(1, n + 1):
            acc = 0j
            for k in range(1, m + 1):
                acc += k * a[k] * e[m - k]
            e.append(acc / m)
        return TruncatedSeries(tuple(e))

    def eval(self, zeta: complex) -> complex:
        """Horner evaluation of the truncated polynomial at ``zeta``."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * zeta + c
        return acc

    def __call__(self, zeta: complex) -> complex:
        return self.eval(zeta)
