"""Node table: identity, authority flag, location, Byzantine type per node.

Accepted on disk as JSON (a list of row objects) or CSV with the header
``NodeID,Authority,Location,Data,Byzantine``; the format is auto-detected
from the file extension. The authority set comes from the binary column by
default, or from an optional location-id rule (every node whose location
parses as an integer below the threshold `RunConfig` resolved is an authority).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from reprlib import repr as brief  # cuts a long cell short in an error message

from .distributions import is_int
from .errors import NodeTableError
from .faults import ByzantineType


class NodeSpec:
    def __init__(self, id: int, authority: bool, location: str, byzantine: ByzantineType):
        self.id = id
        self.authority = authority
        self.location = location
        self.byzantine = byzantine

    def __eq__(self, other):
        return type(other) is NodeSpec and vars(other) == vars(self)


class NodeTable:
    """Rows in input order; equal tables have equal rows."""

    def __init__(self, rows: tuple[NodeSpec, ...]):
        self.rows = rows
        seen = set()
        for i, row in enumerate(self.rows, start=1):
            if row.id < 1:
                raise NodeTableError(f"row {i}: node ids must be positive, got {brief(row.id)}")
            if row.id in seen:
                raise NodeTableError(f"row {i}: duplicate node id {brief(row.id)}")
            seen.add(row.id)
        if not any(r.authority for r in self.rows):
            raise NodeTableError("node table defines zero authorities")

    def __eq__(self, other):
        return type(other) is NodeTable and other.rows == self.rows

    @property
    def ids(self) -> list[int]:
        return [r.id for r in self.rows]

    @property
    def authorities(self) -> list[int]:
        return [r.id for r in self.rows if r.authority]

    @property
    def followers(self) -> list[int]:
        return [r.id for r in self.rows if not r.authority]

    def spec(self, node_id: int) -> NodeSpec:
        for r in self.rows:
            if r.id == node_id:
                return r
        raise NodeTableError(f"unknown node id {node_id}")

    def benign(self) -> set[int]:
        return {r.id for r in self.rows if r.byzantine is ByzantineType.HONEST}


def _int_cell(value, default: int | None = None) -> int:
    """A JSON integer or a CSV digit string; an empty cell means `default`.

    Raises ValueError for a missing required cell, a boolean or a fraction,
    which int() would otherwise coerce.
    """
    if value is None or value == "":
        if default is None:
            raise ValueError("missing cell")
        return default
    if not (is_int(value) or isinstance(value, str)):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _parse_row(i: int, raw: dict, authority_rule: dict) -> NodeSpec:
    if not isinstance(raw, dict):
        raise NodeTableError(f"row {i}: must be an object, got {brief(raw)}")
    try:
        node_id = _int_cell(raw.get("id"))
    except ValueError:
        raise NodeTableError(f"row {i}: missing or non-integer node id {brief(raw.get('id'))}")
    location = str(raw.get("location", ""))
    try:
        byz = ByzantineType(_int_cell(raw.get("byzantine"), 0))
    except ValueError:
        raise NodeTableError(
            f"row {i}: invalid Byzantine code {brief(raw.get('byzantine'))} (must be 0, 1 or 2)")
    if authority_rule.get("kind") == "location_threshold":
        try:
            authority = int(location) < authority_rule["threshold"]
        except ValueError:
            raise NodeTableError(
                f"row {i}: location {brief(location)} is not an integer id, "
                f"cannot apply the location-threshold authority rule")
    else:
        try:
            flag = _int_cell(raw.get("authority"), 0)
        except ValueError:
            flag = None
        if flag not in (0, 1):
            raise NodeTableError(
                f"row {i}: authority flag must be 0 or 1, got {brief(raw.get('authority'))}")
        authority = flag == 1
    return NodeSpec(id=node_id, authority=authority, location=location, byzantine=byz)


def parse_node_rows(rows: list[dict], authority_rule: dict | None = None) -> NodeTable:
    rule = authority_rule or {"kind": "column"}
    return NodeTable(tuple(_parse_row(i, raw, rule) for i, raw in enumerate(rows, start=1)))


# The Data column is accepted and not stored.
_CSV_FIELDS = {"NodeID": "id", "Authority": "authority", "Location": "location",
               "Byzantine": "byzantine"}


def parse_node_table(path: str | Path, authority_rule: dict | None = None) -> NodeTable:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                rows = [{ours: (raw.get(theirs) or "").strip()
                         for theirs, ours in _CSV_FIELDS.items()}
                        for raw in csv.DictReader(fh)]
            except ValueError as exc:  # bytes that are not UTF-8
                raise NodeTableError(f"node table {path} is not UTF-8 text: {exc}")
    else:
        with open(path, encoding="utf-8") as fh:
            try:
                rows = json.load(fh)
            except ValueError as exc:  # also bytes that are not UTF-8, or a huge integer
                raise NodeTableError(f"node table {path} is not valid JSON: {exc}")
        if not isinstance(rows, list):
            raise NodeTableError(f"node table {path} must be a JSON list of rows")
    return parse_node_rows(rows, authority_rule)
