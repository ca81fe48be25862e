"""Growth-function algebra for the moderate-growth classes.

Three parametric families are built in, each a ``GrowthFunction(family, param)``:

* ``"power"``, rho           : psi(x) = x**rho, rho > 0
* ``"log_power"``, p         : psi(x) = ln(x)**p, p >= 0
* ``"exp_log_power"``, beta  : psi(x) = exp(ln(x)**beta), 0 < beta < 1

Each carries its logarithmic integral
psi_tilde(x) = integral_1^x psi(t)/t dt in closed form (a confluent
hypergeometric function for the third family), the analytic growth order in
the doubling sense, and the genus used by canonical products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "GrowthError",
    "GrowthFunction",
]

FAMILIES = ("power", "log_power", "exp_log_power")

ArrayLike = Union[float, np.ndarray]


class GrowthError(ValueError):
    """Invalid growth-function parameter or evaluation outside [1, inf)."""


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

    def psi(self, x: ArrayLike) -> ArrayLike:
        x_arr = np.asarray(x, dtype=float)
        _check_domain(x_arr)
        return self.psi_log(np.log(np.maximum(x_arr, 1.0)))

    def psi_log(self, log_x: ArrayLike) -> ArrayLike:
        """psi evaluated at x = exp(log_x); avoids forming huge x."""
        u = np.asarray(log_x, dtype=float)
        if self.family == "power":
            out = np.exp(self.param * u)
        elif self.family == "log_power":
            out = u ** self.param if self.param > 0 else np.ones_like(u)
        else:
            out = np.exp(u ** self.param)
        return out if out.ndim else float(out)

    def psi_tilde(self, x: ArrayLike) -> ArrayLike:
        x_arr = np.asarray(x, dtype=float)
        _check_domain(x_arr)
        return self.psi_tilde_log(np.log(np.maximum(x_arr, 1.0)))

    def psi_tilde_log(self, log_x: ArrayLike) -> ArrayLike:
        """Logarithmic integral of psi at x = exp(log_x)."""
        u = np.asarray(log_x, dtype=float)
        if self.family == "power":
            out = np.expm1(self.param * u) / self.param
        elif self.family == "log_power":
            out = u ** (self.param + 1) / (self.param + 1)
        else:
            from scipy.special import hyp1f1  # imported here: only this family needs scipy
            # t = e^v and v = u w^(1/beta) turn the integral of exp(v^beta)
            # over [0, u] into u 1F1(1/beta; 1/beta + 1; u^beta)
            a = 1.0 / self.param
            with np.errstate(over="ignore"):
                out = u * hyp1f1(a, a + 1.0, u ** self.param)
            if not np.all(np.isfinite(out)):
                raise OverflowError("psi_tilde of exp_log_power exceeds the double range")
        return out if out.ndim else float(out)

    def psi_inverse_log(self, y: ArrayLike) -> ArrayLike:
        """ln of the inverse function: solves psi(x) = y for ln x."""
        y_arr = np.asarray(y, dtype=float)
        if np.any(y_arr <= 0):
            raise GrowthError("psi inverse needs y > 0")
        if self.family == "power":
            out = np.log(y_arr) / self.param
        elif self.family == "log_power":
            if self.param == 0:
                raise GrowthError("log_power with p = 0 is constant, not invertible")
            out = y_arr ** (1.0 / self.param)
        else:
            if np.any(y_arr < 1.0):
                raise GrowthError("exp_log_power has range [1, inf)")
            out = np.log(y_arr) ** (1.0 / self.param)
        return out if out.ndim else float(out)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "GrowthFunction":
        try:
            family, param = str(data["family"]), float(data["param"])
        except KeyError as exc:
            raise GrowthError(f"growth spec missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise GrowthError(f"growth spec field 'param': {exc}") from exc
        return cls(family, param)
