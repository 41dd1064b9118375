"""Node table: identity, authority flag, location, Byzantine type per node.

Accepted on disk as JSON (a list of row objects) or CSV with the header
``NodeID,Authority,Location,Data,Byzantine``; the format is auto-detected
from the file extension. The authority set comes from the binary column by
default, or from an optional location-id rule (every node whose location
parses as an integer below the threshold `RunConfig` resolved is an authority).
"""

from __future__ import annotations

import csv
from pathlib import Path

from .distributions import brief, check_object, int_cell, is_int, read_json
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
    """Rows in input order, with the ids of every row and of the authority rows (the
    two broadcast audiences, built once); equal tables have equal rows."""

    def __init__(self, rows: tuple[NodeSpec, ...]):
        self.rows = rows
        seen = set()
        for i, row in enumerate(self.rows, start=1):
            if row.id < 1:
                raise NodeTableError(f"row {i}: node ids must be positive, got {brief(row.id)}")
            if row.id in seen:
                raise NodeTableError(f"row {i}: duplicate node id {brief(row.id)}")
            seen.add(row.id)
        self.ids = [r.id for r in rows]
        self.authorities = [r.id for r in rows if r.authority]
        if not self.authorities:
            raise NodeTableError("node table defines zero authorities")

    def __eq__(self, other):
        return type(other) is NodeTable and other.rows == self.rows

    def benign(self) -> set[int]:
        return {r.id for r in self.rows if r.byzantine is ByzantineType.HONEST}


# A JSON row's keys; `data` (the CSV Data column) is accepted and not stored.
_ROW_KEYS = ("id", "authority", "location", "data", "byzantine")


def _code_cell(value) -> int | None:
    """A Byzantine code or authority flag cell: empty or left out means 0."""
    return 0 if value is None or value == "" else int_cell(value)


def _parse_row(i: int, raw: dict, authority_rule: dict) -> NodeSpec:
    check_object(f"row {i}", raw, _ROW_KEYS, error=NodeTableError)
    node_id = int_cell(raw.get("id"))
    if node_id is None:
        raise NodeTableError(f"row {i}: missing or non-integer node id {brief(raw.get('id'))}")
    location = raw.get("location", "")
    if not (isinstance(location, str) or is_int(location)):
        raise NodeTableError(f"row {i}: location must be a string or an integer, "
                             f"got {brief(location)}")
    try:
        location = str(location)
    except ValueError:  # more digits than str() converts
        raise NodeTableError(f"row {i}: location {brief(location)} has too many digits") from None
    code = _code_cell(raw.get("byzantine"))
    if code not in (0, 1, 2):
        raise NodeTableError(
            f"row {i}: invalid Byzantine code {brief(raw.get('byzantine'))} (must be 0, 1 or 2)")
    if authority_rule.get("kind") == "location_threshold":
        location_id = int_cell(location)
        if location_id is None:
            raise NodeTableError(
                f"row {i}: location {brief(location)} is not an integer id, "
                f"cannot apply the location-threshold authority rule")
        authority = location_id < authority_rule["threshold"]
    else:
        flag = _code_cell(raw.get("authority"))
        if flag not in (0, 1):
            raise NodeTableError(
                f"row {i}: authority flag must be 0 or 1, got {brief(raw.get('authority'))}")
        authority = flag == 1
    return NodeSpec(id=node_id, authority=authority, location=location,
                    byzantine=ByzantineType(code))


def parse_node_rows(rows: list[dict], authority_rule: dict | None = None) -> NodeTable:
    rule = authority_rule or {"kind": "column"}
    return NodeTable(tuple(_parse_row(i, raw, rule) for i, raw in enumerate(rows, start=1)))


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
        rows = read_json(path, NodeTableError)
        if not isinstance(rows, list):
            raise NodeTableError(f"node table {path} must be a JSON list of rows")
    return parse_node_rows(rows, authority_rule)
