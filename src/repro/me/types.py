"""Motion vector types shared by the estimation and compensation layers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MotionVector:
    """A motion vector.  Units depend on context (integer/half/quarter pel)."""

    x: int = 0
    y: int = 0

    def __add__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "MotionVector") -> "MotionVector":
        return MotionVector(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "MotionVector":
        return MotionVector(-self.x, -self.y)

    def scaled(self, factor: int) -> "MotionVector":
        return MotionVector(self.x * factor, self.y * factor)

    def clamped(self, limit: int) -> "MotionVector":
        return MotionVector(
            max(-limit, min(limit, self.x)),
            max(-limit, min(limit, self.y)),
        )

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


ZERO_MV = MotionVector(0, 0)


def div_to_zero(value: int, divisor: int) -> int:
    """``value / divisor`` rounded toward zero, the MPEG convention for
    converting motion vectors between units."""
    return value // divisor if value >= 0 else -((-value) // divisor)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a motion search: best vector and its cost."""

    mv: MotionVector
    cost: int

    def better_than(self, other: "SearchResult") -> bool:
        return self.cost < other.cost


def median3(a: int, b: int, c: int) -> int:
    """Median of three integers (the MV predictor of all three codecs)."""
    return max(min(a, b), min(max(a, b), c))


def median_mv(a: MotionVector, b: MotionVector, c: MotionVector) -> MotionVector:
    """Component-wise median of three motion vectors."""
    return MotionVector(median3(a.x, b.x, c.x), median3(a.y, b.y, c.y))
