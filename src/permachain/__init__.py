"""Deterministic discrete-event simulator for permissioned blockchains.

Supports three-phase BFT replication with view changes, round-robin
single-message authority consensus, and its lottery-elected variant, all
driven by configurable network delays, daily transaction loads, and
active/passive Byzantine authority behaviors. Every run is a pure function
of (configuration, seed) and emits machine-readable reports.
"""

__version__ = "0.1.0"
