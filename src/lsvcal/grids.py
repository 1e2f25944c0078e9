"""Space-time grid description for the truncated rectangular domain."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _nodes(lo: float, hi: float, n: int) -> np.ndarray:
    x = np.linspace(lo, hi, n)
    x.flags.writeable = False
    return x


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid on [s_min, s_max] x [y_min, y_max] x [0, horizon].

    ``n_s`` and ``n_y`` count interior nodes; the stored node vectors include
    the two boundary nodes of each axis.  ``holder_exp`` is the Hoelder
    exponent used by all norm estimates on this grid.  The node vectors are
    computed once per grid and are read-only; they take no part in equality.
    """

    s_min: float
    s_max: float
    y_min: float
    y_max: float
    n_s: int
    n_y: int
    horizon: float
    n_t: int
    holder_exp: float = 0.5

    def __post_init__(self):
        if self.n_s < 8 or self.n_y < 8:
            raise ValueError("need at least 8 interior nodes per spatial axis")
        if self.horizon <= 0 or self.n_t < 1:
            raise ValueError("horizon and time-step count must be positive")
        if not (self.s_min < self.s_max and self.y_min < self.y_max):
            raise ValueError("empty spatial domain")
        if not 0.0 < self.holder_exp < 1.0:
            raise ValueError("holder_exp must lie in (0, 1)")

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / (self.n_s + 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.n_y + 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    @cached_property
    def s_nodes(self) -> np.ndarray:
        return _nodes(self.s_min, self.s_max, self.n_s + 2)

    @cached_property
    def y_nodes(self) -> np.ndarray:
        return _nodes(self.y_min, self.y_max, self.n_y + 2)

    @cached_property
    def t_nodes(self) -> np.ndarray:
        return _nodes(0.0, self.horizon, self.n_t + 1)

    @property
    def shape(self) -> tuple:
        """(time levels, S nodes, y nodes) including boundaries."""
        return (self.n_t + 1, self.n_s + 2, self.n_y + 2)

    def contains_interior(self, s0: float, y0: float) -> bool:
        return (self.s_min + self.ds < s0 < self.s_max - self.ds
                and self.y_min + self.dy < y0 < self.y_max - self.dy)
