"""Append-only result store for long synthesis campaigns.

One JSON object per line after a version header, so a crashed run loses at
most its final partial line and a restart simply appends.  Nothing persisted
is trusted: every witness is re-parsed and re-simulated at load time, and a
line failing any check is reported with its line number, never silently
dropped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .aig import from_aiger
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
    # Provenance: "enum" (opt_size on this table) or "oracle" (opt_size on its
    # NPN class, the witness moved to this table by npn.retarget).
    backend: str
    elapsed_ms: int
    timestamp: str  # UTC ISO-8601

    def verify(self) -> None:
        """Raise ValueError unless the record is internally consistent."""
        tt = parse_hex(self.tt_hex, self.n)
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


def record_from_result(result: OptResult) -> ResultRecord:
    from .aig import to_aiger

    return ResultRecord(
        tt_hex=result.tt.hex(),
        n=result.tt.n,
        size=result.size,
        status=result.status.value,
        exhausted_below=result.exhausted_below,
        witness_aag=to_aiger(result.witness),
        backend="enum",
        elapsed_ms=int(result.elapsed * 1000),
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def append_record(path: str | Path, record: ResultRecord) -> None:
    record.verify()
    path = Path(path)
    fresh = not path.exists() or path.stat().st_size == 0
    with path.open("a", encoding="utf-8") as fh:
        if fresh:
            fh.write(HEADER + "\n")
        fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")


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
    return (r.status != Status.EXACT.value, r.size, r.timestamp, astuple(r))


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
