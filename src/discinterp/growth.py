"""Growth-function algebra for the moderate-growth classes.

Three parametric families are built in, each a ``GrowthFunction(family, param)``:

* ``"power"``, rho           : psi(x) = x**rho, rho > 0
* ``"log_power"``, p         : psi(x) = ln(x)**p, p >= 0
* ``"exp_log_power"``, beta  : psi(x) = exp(ln(x)**beta), 0 < beta < 1

Each carries its logarithmic integral
psi_tilde(x) = integral_1^x psi(t)/t dt, the analytic growth order in the
doubling sense, and the genus used by canonical products.  psi_tilde is a
closed form for the first two families.  For the third it is the confluent
hypergeometric u 1F1(1/beta; 1/beta + 1; u^beta) at u = ln x, summed as a
positive power series in long double and rounded once (``_kummer_integral``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GrowthError",
    "GrowthFunction",
]

FAMILIES = ("power", "log_power", "exp_log_power")

# psi_tilde(e^u) >= exp(x - 1) for x = u^beta (see _kummer_integral), past
# the double range once x - 1 > ln(DBL_MAX) = 709.78
_X_OVERFLOW = 711.0


class GrowthError(ValueError):
    """Invalid growth-function parameter or evaluation outside [1, inf)."""


def _kummer_integral(u: np.ndarray, beta: float) -> np.ndarray:
    """integral_0^u exp(v^beta) dv = u 1F1(a; a + 1; x), a = 1/beta, x = u^beta, per element.

    v = u w^a turns the integral into u a integral_0^1 w^(a-1) e^(x w) dw,
    that is u F with F = sum_k s_k, s_k = t_k / (1 + k beta), t_k = x^k / k!,
    all terms positive.  F is summed term by term in long double (p-bit
    significand, unit roundoff r = 2^-p; p = 64 on x86-64) with
    t_k = t_(k-1) (x / k), and u F is rounded once to double.  An element's
    sum is final at the first k > x whose term leaves it unchanged: from
    there on the terms only shrink, so every later one leaves it unchanged
    too.  So the terms can go in steps of m (running products and sums
    down an m-row block; 2 <= m <= 32 and, where m > 2, m n <= 2^14 cells)
    with the check after each step: any step gives the same sum, no value
    depends on its batch, and the steps run on the distinct values.

    *Error.*  To first order in r the relative error is at most
    2^-53 + (5 x + p + 8) r.  powl is within one ulp (2 r) of x, which moves
    F by at most 2 r x F'/F <= 2 r x, as F' <= F term by term.  Let
    K = ceil(2 x) + p + 2.  Past 2 x each term is under half the one before,
    so s_K < r F / 4 and the sum is final by K.  Up to K it is an ordinary
    sum: term k carries 2 k + 3 roundings of its own and K - k of the sum,
    (k + K + 3) r <= (3 x + p + 6) r on average over s_k, whose mean k is
    x F'/F <= x.  The tail past K is below 2 s_K < r F / 2, and the product
    u F adds r.

    *Overflow.*  For u >= 1, the integral over [u - 1, u] alone is at least
    exp((u - 1)^beta) >= exp(x - 1), as v^beta is subadditive.  So an element
    with x > ``_X_OVERFLOW`` (or NaN) is given inf without summing, and any
    other result past the double range comes out inf as well.
    """
    distinct, inverse = np.unique(u, return_inverse=True)
    b = np.longdouble(beta)
    x = distinct.astype(np.longdouble) ** b
    total = np.full(x.shape, np.inf, dtype=np.longdouble)
    idx = np.flatnonzero(x <= _X_OVERFLOW)
    x, term, part = x[idx], np.ones(idx.size, np.longdouble), np.ones(idx.size, np.longdouble)
    k = 0
    while idx.size:
        m = max(2, min(32, 2**14 // idx.size))
        ks = np.arange(k + 1, k + m + 1, dtype=np.longdouble)[:, None]
        k += m
        t = x / ks
        t[0] *= term
        np.multiply.accumulate(t, axis=0, out=t)
        s = t / (1 + ks * b)
        s[0] += part
        np.add.accumulate(s, axis=0, out=s)
        done = (s[-1] == s[-2]) & (x < k)
        total[idx[done]] = s[-1, done]
        keep = ~done
        idx, x, term, part = idx[keep], x[keep], t[-1, keep], s[-1, keep]
    with np.errstate(over="ignore"):
        return (u.astype(np.longdouble) * total[inverse.reshape(u.shape)]).astype(float)


def _check_domain(x: np.ndarray) -> None:
    if np.any(x < 1.0 - 1e-12):
        raise GrowthError(f"growth functions are defined on [1, inf), got {x.min()}")


@dataclass(frozen=True)
class GrowthFunction:
    """A member of one of the built-in growth families."""

    family: str
    param: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise GrowthError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        p = float(self.param)
        if not math.isfinite(p):
            raise GrowthError(f"growth param must be finite, got {p}")
        if self.family == "power" and not p > 0:
            raise GrowthError("power family needs rho > 0")
        if self.family == "log_power" and not p >= 0:
            raise GrowthError("log_power family needs p >= 0")
        if self.family == "exp_log_power" and not 0 < p < 1:
            raise GrowthError("exp_log_power family needs beta in (0, 1)")
        object.__setattr__(self, "param", p)

    # -- derived data ------------------------------------------------------

    @property
    def polya_order(self) -> float:
        """Analytic doubling order: rho for powers, 0 for the slow families."""
        return self.param if self.family == "power" else 0.0

    @property
    def genus(self) -> int:
        """Genus floor(order) + 1 used by canonical products."""
        return int(math.floor(self.polya_order)) + 1

    # -- evaluation --------------------------------------------------------
    # each returns numpy's result, of the input's shape: an array for an array
    # and a numpy scalar (or 0-d array) for a 0-d input

    def psi(self, x) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        _check_domain(x_arr)
        return self.psi_log(np.log(np.maximum(x_arr, 1.0)))

    def psi_log(self, log_x) -> np.ndarray:
        """psi evaluated at x = exp(log_x); avoids forming huge x."""
        u = np.asarray(log_x, dtype=float)
        if self.family == "power":
            return np.exp(self.param * u)
        if self.family == "log_power":
            return u ** self.param if self.param > 0 else np.ones_like(u)
        return np.exp(u ** self.param)

    def psi_tilde(self, x) -> np.ndarray:
        x_arr = np.asarray(x, dtype=float)
        _check_domain(x_arr)
        return self.psi_tilde_log(np.log(np.maximum(x_arr, 1.0)))

    def psi_tilde_log(self, log_x) -> np.ndarray:
        """Logarithmic integral of psi at x = exp(log_x)."""
        u = np.asarray(log_x, dtype=float)
        if self.family == "power":
            return np.expm1(self.param * u) / self.param
        if self.family == "log_power":
            return u ** (self.param + 1) / (self.param + 1)
        out = _kummer_integral(u, self.param)
        if not np.all(np.isfinite(out)):
            raise OverflowError("psi_tilde of exp_log_power exceeds the double range")
        return out

    def psi_inverse_log(self, y) -> np.ndarray:
        """ln of the inverse function: solves psi(x) = y for ln x."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr <= 0):
            raise GrowthError("psi inverse needs y > 0")
        if self.family == "power":
            return np.log(y_arr) / self.param
        if self.family == "log_power":
            if self.param == 0:
                raise GrowthError("log_power with p = 0 is constant, not invertible")
            return y_arr ** (1.0 / self.param)
        if np.any(y_arr < 1.0):
            raise GrowthError("exp_log_power has range [1, inf)")
        return np.log(y_arr) ** (1.0 / self.param)

