"""Byzantine node behaviors: honest (0), active tamperer (1), passive dropper (2).

Active nodes send every message in its corrupted form (see the
``corrupted()`` method of each message class in messages.py), so every honest
verifier rejects any digest it carries. Passive nodes drop each outbound message
independently with a fixed probability (the network draws each decision) and
otherwise behave byte-identically to honest nodes. Honest nodes are untouched
by this module; drop probabilities come from `RunConfig.drop_prob_for`.
"""

from __future__ import annotations

from enum import IntEnum


class ByzantineType(IntEnum):
    HONEST = 0
    ACTIVE = 1
    PASSIVE = 2


def should_drop(byz: ByzantineType, drop_prob: float) -> bool:
    """Whether a node drops outbound messages at all: passive, with p > 0."""
    return byz is ByzantineType.PASSIVE and drop_prob > 0.0
