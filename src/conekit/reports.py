"""Pass/fail types shared by the builders and verifiers.

Every certified claim, a construction claim of ``bump`` or a curvature
check of ``verify``, follows one rule, kept here in ``_RELATIONS``: a
sampled quantity is reduced by its check's kind (its minimum, its maximum
or its largest magnitude, NaN propagating) and compared with its bound, a
comparison that NaN fails.  The module imports no numpy, so the CLI can
map a failed construction claim to its exit code without loading the
numeric layers.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, asdict, dataclass, field

__all__ = ["ConstructionError", "BoundCheck", "VerificationReport"]


class ConstructionError(ValueError):
    """A certified construction claim failed (message names the claim)."""


# each check kind's relation: its symbol, the reduction of a numpy array of
# samples to the value compared (numpy's min and max propagate NaN), and
# whether (value, bound, tol) satisfy it, which a NaN value never does
_RELATIONS = {
    "min_ge": (">=", lambda s: s.min(), lambda value, bound, tol: value >= bound - tol),
    "max_le": ("<=", lambda s: s.max(), lambda value, bound, tol: value <= bound + tol),
    "match": ("==", lambda s: abs(s).max(), lambda value, bound, tol: abs(value - bound) <= tol),
}


def _relation(kind: str):
    if kind not in _RELATIONS:
        raise ValueError(f"unknown check kind {kind!r}; "
                         f"expected one of {', '.join(_RELATIONS)}")
    return _RELATIONS[kind]


@dataclass(frozen=True)
class BoundCheck:
    """One measured quantity against one declared bound.

    kind = "min_ge": passes iff value >= bound - tol (grid minima).
    kind = "match":  passes iff |value - bound| <= tol (pointwise targets).
    kind = "max_le": passes iff value <= bound + tol.

    ``bound_expr`` optionally carries the symbolic form of the bound (e.g.
    "2 - 2*c^2") next to its representable 64-bit value.
    :meth:`sampled` builds a check from the samples of its quantity.
    """

    name: str
    value: float
    bound: float
    _: KW_ONLY
    bound_expr: str = ""
    kind: str = "min_ge"
    tol: float = 1e-9

    def __post_init__(self):
        _relation(self.kind)

    @classmethod
    def sampled(cls, name: str, samples, bound: float, *, kind: str = "min_ge",
                tol: float = 1e-9, bound_expr: str = "") -> "BoundCheck":
        """The check of a numpy array of samples (0-d too), reduced by ``kind``.

        ``min_ge`` keeps the minimum, ``max_le`` the maximum and ``match``
        the largest magnitude, so a NaN sample makes the check fail.  A
        ``match`` therefore compares residuals with 0: ``ValueError`` for a
        nonzero bound, whose target belongs inside the samples.
        """
        reduce = _relation(kind)[1]
        if kind == "match" and bound != 0:
            raise ValueError(f"a sampled match compares magnitudes with 0, got bound {bound!r}")
        return cls(name, float(reduce(samples)), bound, bound_expr=bound_expr,
                   kind=kind, tol=tol)

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.kind][2](self.value, self.bound, self.tol))

    def describe(self) -> str:
        expr = f" [{self.bound_expr}]" if self.bound_expr else ""
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: {self.value:.12g} {_RELATIONS[self.kind][0]} "
                f"{self.bound:.12g}{expr} (tol {self.tol:g})")


@dataclass(frozen=True)
class VerificationReport:
    """A labelled bundle of bound checks over a grid.

    For region verification the ``min_ge`` checks carry the per-entry grid
    minima against the declared bounds; the pass flag of each check is true
    iff the minimum clears its bound minus the tolerance.
    """

    label: str
    grid_size: int
    tol: float
    checks: tuple[BoundCheck, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def minima(self) -> dict[str, float]:
        return {c.name: c.value for c in self.checks if c.kind == "min_ge"}

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "grid_size": self.grid_size,
            "tol": self.tol,
            "passed": self.passed,
            "checks": [{**asdict(c), "passed": c.passed} for c in self.checks],
        }

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{status} {self.label} (grid {self.grid_size}, tol {self.tol:g})"]
        lines += ["  " + c.describe() for c in self.checks]
        return "\n".join(lines)
