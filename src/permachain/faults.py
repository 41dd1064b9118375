"""Byzantine node behaviors: honest (0), active tamperer (1), passive dropper (2).

Active nodes send every message in its corrupted form (see the
``corrupted()`` method of each message class in messages.py), so every honest
verifier rejects any digest it carries. Passive nodes drop each outbound message
independently with a fixed probability and otherwise behave byte-identically
to honest nodes. Honest nodes are untouched by this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError


class ByzantineType(IntEnum):
    HONEST = 0
    ACTIVE = 1
    PASSIVE = 2


@dataclass(frozen=True)
class FaultConfig:
    drop_prob: float = 0.4
    # Per-node drop-probability overrides; the single global value matches
    # the common one-knob configuration.
    drop_prob_overrides: dict | None = None

    def __post_init__(self):
        if not (0.0 <= self.drop_prob <= 1.0):
            raise ConfigError(f"drop_prob must be in [0, 1], got {self.drop_prob}")
        for node, p in (self.drop_prob_overrides or {}).items():
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"drop_prob override for node {node} must be in [0, 1]")

    def drop_prob_for(self, node: int) -> float:
        if self.drop_prob_overrides and node in self.drop_prob_overrides:
            return self.drop_prob_overrides[node]
        return self.drop_prob


def should_drop(byz: ByzantineType, node: int, config: FaultConfig,
                rng: np.random.Generator) -> bool:
    """Outbound drop decision; true only for passive nodes, per message."""
    if byz is not ByzantineType.PASSIVE:
        return False
    p = config.drop_prob_for(node)
    if p <= 0.0:
        return False
    return bool(rng.random() < p)
