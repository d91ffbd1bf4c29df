"""Scalar function catalog with curated operator-theoretic flags.

Operator convexity/monotonicity is NOT inferred numerically; each catalog
entry carries the standard textbook flags for its parameter range:

* t^p, 1 <= p <= 2       operator convex
* t^p, 0 <= p <= 1       operator monotone increasing
* t^p, -1 <= p < 0       operator convex
* log                    operator monotone increasing

Scalar (midpoint) convexity is tracked separately; it is the hypothesis of
the chord-based bounds, which need less than operator convexity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class ScalarFunction:
    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    # curated flags (see module docstring); never inferred
    operator_convex: bool = False
    operator_monotone_increasing: bool = False
    scalar_convex: bool = False
    one_to_one: bool = False
    requires_positive: bool = True
    power_exponent: Optional[float] = None  # set iff this is t^p

    def __call__(self, t):
        return self.evaluate(t)

    def inverted(self) -> "ScalarFunction":
        """t^(1/p) for t^p (p != 0), with its own curated flags; no other
        function has a registered inverse."""
        if not self.power_exponent:
            raise ValueError(f"{self.name} has no registered inverse")
        return power_function(1.0 / self.power_exponent)

    @property
    def mean_normalized(self) -> bool:
        """f(1) = 1, the normalization of an operator-mean representer."""
        return abs(float(self.evaluate(np.float64(1.0))) - 1.0) <= 1e-12


def power_function(p: float, name: Optional[str] = None) -> ScalarFunction:
    """t -> t^p on (0, inf) with the curated flag set for this exponent."""
    p = float(p)
    return ScalarFunction(
        name=name or f"t^{p:g}",
        evaluate=lambda t, _p=p: np.asarray(t, dtype=float) ** _p,
        operator_convex=(1.0 <= p <= 2.0) or (-1.0 <= p < 0.0),
        operator_monotone_increasing=0.0 <= p <= 1.0,
        scalar_convex=p >= 1.0 or p <= 0.0,
        one_to_one=p != 0.0,
        requires_positive=not (p >= 0 and float(p).is_integer()),
        power_exponent=p,
    )


identity_function = power_function(1.0)
square_function = power_function(2.0)
sqrt_function = power_function(0.5)
inverse_function = power_function(-1.0)

log_function = ScalarFunction(
    name="log",
    evaluate=np.log,
    operator_monotone_increasing=True,
    scalar_convex=False,
    one_to_one=True,
    requires_positive=True,
)


CATALOG: dict[str, ScalarFunction] = {
    "t": identity_function,
    "t^2": square_function,
    "t^1.5": power_function(1.5),
    "t^0.5": sqrt_function,
    "t^-1": inverse_function,
    "log": log_function,
}


def by_name(name: str) -> ScalarFunction:
    """Catalog lookup; also accepts any `t^<p>` power spelling, p finite."""
    if name in CATALOG:
        return CATALOG[name]
    if name.startswith("t^"):
        try:
            if np.isfinite(p := float(name[2:])):
                return power_function(p)
        except ValueError:
            pass
    raise KeyError(f"unknown scalar function {name!r}; catalog: {sorted(CATALOG)}")


__all__ = [
    "ScalarFunction", "power_function", "by_name", "CATALOG",
    "identity_function", "square_function", "sqrt_function",
    "inverse_function", "log_function",
]
