"""Structured records shared across layers.

:class:`DegradationEvent` is the one record of a degradation decision: the
GAP ladder stamps it on a solution whose LP timed out, and the remote
transport records it when it falls back to a local pool. It lives here,
below both layers, so neither imports the other to share it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DegradationEvent:
    """One substitution of a cheaper path for the one the caller asked for."""

    #: What the caller asked for (``"shmoys_tardos"``, ``"remote"``).
    requested: str
    #: What actually ran from this point (``"assignment"``, ``"greedy"``,
    #: ``"pool"``; ``"error"`` when policy forbids any fallback).
    used: str
    #: Machine-readable cause (``"timeout"``, ``"host-floor"``,
    #: ``"unclaimed-timeout"``).
    reason: str
    #: Human-readable specifics (the triggering error message, live host
    #: count, floor, timeout).
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DegradationEvent({self.requested} -> {self.used}: "
            f"{self.reason})"
        )


__all__ = ["DegradationEvent"]
