"""Run configuration shared by both engine variants."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

DEFAULT_ETA = 1.0 / 16.0
DEFAULT_KAPPA = 64.0
DEFAULT_EPSILON = 0.1


@dataclass
class SimConfig:
    """Parameters of one simulation run.

    The discrete model's period of Q slots is derived from the topology as
    ``kappa * delta`` by :meth:`resolve_q`; the continuous model's period
    is T = 1.  ``eta`` is the buffer fraction of the
    slot-claiming protocol and must stay at or below 1/16; ``kappa`` must
    be at least ``4 / eta`` so the free-slot guarantee holds.  ``epsilon``
    randomizes buffer lengths in the continuous protocol.  ``r`` is the
    moving-window length of the dynamic degree estimator; when ``None``
    it defaults to ``ceil(log2 n)``.  ``max_periods`` caps a discrete
    trial; when ``None`` it defaults to ``max(64, ceil(50 ln n))``.
    """

    kappa: float = DEFAULT_KAPPA
    eta: float = DEFAULT_ETA
    epsilon: float = DEFAULT_EPSILON
    r: int | None = None
    master_seed: int = 1
    wakeup: str = "simultaneous"
    max_periods: int | None = None
    dynamic: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0 / 16.0:
            raise ConfigError(f"eta must lie in (0, 1/16], got {self.eta}")
        if not math.isfinite(self.kappa):
            raise ConfigError(f"kappa must be finite, got {self.kappa}")
        if self.kappa < 4.0 / self.eta:
            raise ConfigError(
                f"kappa={self.kappa} too small; need kappa >= 4/eta = {4.0 / self.eta}"
            )
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.r is not None and self.r < 1:
            raise ConfigError("r must be a positive integer")
        if self.max_periods is not None and self.max_periods < 1:
            raise ConfigError("max_periods must be positive")
        if not isinstance(self.master_seed, int):
            raise ConfigError("master_seed must be an integer")

    def resolve_q(self, delta: int) -> int:
        """Slots per period for a topology with maximum degree ``delta``; at
        most 2**32, the largest bound a slot draw takes (``rng.RawDraws``)."""
        d = max(int(delta), 1)
        q = self.kappa * d
        if q > 2**32:
            raise ConfigError(f"kappa*delta = {q:g} slots exceeds the 2**32 a slot draw covers")
        q_int = int(round(q))
        if abs(q - q_int) > 1e-9:
            raise ConfigError(f"kappa*delta = {q} is not an integer slot count")
        return q_int

    def window_length(self, n: int) -> int:
        """Dynamic-mode moving-window length (defaults to ceil(log2 n))."""
        if self.r is not None:
            return self.r
        return max(1, math.ceil(math.log2(max(n, 2))))
