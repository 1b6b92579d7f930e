"""Append-only result store for long synthesis campaigns.

One JSON object per line after a version header, so a crashed run loses at
most its final partial line and a restart simply appends.  A torn last line is
ended before the next record is written, so it stays on a line of its own and
costs no record but its own.  Nothing persisted is trusted: every witness is
re-parsed and re-simulated at load time, and a line failing any check is
reported with its line number, never silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

from .aig import from_aiger, to_aiger
from .synthesis import OptResult, Status
from .truthtable import parse_hex

HEADER = "# aigopt-store v1 json-lines"


@dataclass(frozen=True, slots=True)
class ResultRecord:
    tt_hex: str
    n: int
    size: int
    status: str  # "exact" | "upper-bound"
    exhausted_below: int
    witness_aag: str
    # Provenance: "enum" (opt_size on this table), "sweep" (the sweep's
    # witness for this table, an NPN class canon) or "oracle" (the sweep's
    # witness for its NPN class, moved to this table by npn.retarget, which
    # trusts the pattern it is given; verify() is where the witness is
    # simulated).
    # Every record is built by record_from_result, which sets it.
    backend: str
    elapsed_ms: int
    timestamp: str  # UTC ISO-8601

    def verify(self) -> None:
        """Raise ValueError unless the record is internally consistent."""
        for field in fields(self):
            value = getattr(self, field.name)
            # Exact types: a bool is an int, and 1.0 == 1 would pass the checks below.
            if type(value) is not {"int": int, "str": str}[field.type]:
                raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
        if not -1 <= self.exhausted_below <= self.size - 1:
            raise ValueError(
                f"exhausted_below must be in -1..size-1, got {self.exhausted_below} "
                f"with size {self.size}"
            )
        tt = parse_hex(self.tt_hex, self.n)
        # The store keys records by this text, so one table has one spelling.
        if self.tt_hex != tt.hex():
            raise ValueError(f"tt_hex {self.tt_hex!r} is not spelled {tt.hex()!r}")
        status = Status(self.status)
        witness = from_aiger(self.witness_aag)
        if witness.evaluate() != tt:
            raise ValueError(
                f"witness evaluates to {witness.evaluate().hex()}, record claims {tt.hex()}"
            )
        if witness.size() != self.size:
            raise ValueError(
                f"witness has {witness.size()} gates, record claims {self.size}"
            )
        if status is Status.EXACT and self.exhausted_below != self.size - 1:
            raise ValueError(
                f"exact record must have exhausted_below == size-1, got "
                f"{self.exhausted_below} with size {self.size}"
            )


# A record's fields in order, read plainly: ``dataclasses.asdict`` and
# ``astuple`` deep-copy each field, ~13x the cost for these str and int fields.
_NAMES = tuple(field.name for field in fields(ResultRecord))
_values = attrgetter(*_NAMES)


def record_from_result(result: OptResult, backend: str = "enum") -> ResultRecord:
    return ResultRecord(
        tt_hex=result.tt.hex(),
        n=result.tt.n,
        size=result.size,
        status=result.status.value,
        exhausted_below=result.exhausted_below,
        witness_aag=to_aiger(result.witness),
        backend=backend,
        elapsed_ms=int(result.elapsed * 1000),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def append_record(path: str | Path, *records: ResultRecord) -> None:
    """Append ``records`` in one open.  Each is verified, then written and
    flushed whole before the next is verified, so a crash loses at most the
    record being written; a record that fails verification raises, and the
    ones before it stay written."""
    path = Path(path)
    with path.open("a+b") as fh:
        if fh.tell() == 0:
            fh.write(HEADER.encode() + b"\n")
        else:
            # A crash may have torn the last line: end it, so that the next
            # record is not read as part of it.
            fh.seek(fh.tell() - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        for record in records:
            record.verify()
            line = json.dumps(dict(zip(_NAMES, _values(record))), sort_keys=True)
            fh.write(line.encode() + b"\n")
            # The buffered writer's flush retries a short write until the
            # whole line is out.
            fh.flush()


@dataclass(frozen=True, slots=True)
class LoadIssue:
    line_number: int
    reason: str


@dataclass(frozen=True)
class LoadedStore:
    """Best record per truth table plus every rejected line."""

    best: dict[str, ResultRecord]
    issues: list[LoadIssue]

    def by_bits(self) -> dict[int, ResultRecord]:
        return {
            parse_hex(rec.tt_hex, rec.n).bits: rec for rec in self.best.values()
        }


def _rank(r: ResultRecord) -> tuple:
    """Dominance order, best first: exact before upper bound, then smaller,
    then earlier.  All fields break a remaining tie, so the order is total and
    the best record never depends on line order."""
    return (r.status != Status.EXACT.value, r.size, r.timestamp, _values(r))


def load_store(path: str | Path) -> LoadedStore:
    """Load and re-verify a store file; order-insensitive by dominance."""
    best: dict[str, ResultRecord] = {}
    issues: list[LoadIssue] = []
    path = Path(path)
    with path.open("rb") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                # A non-UTF-8 line raises UnicodeDecodeError, a ValueError.
                line = line.decode("utf-8").strip()
                if not line or line.startswith("#"):
                    continue
                raw = json.loads(line)
                record = ResultRecord(**raw)
                record.verify()
            except (ValueError, TypeError) as exc:
                issues.append(LoadIssue(line_number, str(exc)))
                continue
            key = record.tt_hex
            incumbent = best.get(key)
            if incumbent is None or _rank(record) < _rank(incumbent):
                best[key] = record
    return LoadedStore(best=best, issues=issues)
