"""The benchmark's workloads: seeded inputs, the timed round, answer checks.

Each workload is a closed loop in one thread.  A round runs a fixed list of
operations one after another; the run repeats the same round until its time
is up, so every round does identical work and the round times are samples of
one quantity.  Inputs depend only on the seed.  No operation sets
``time_budget``, so answers and node counts are deterministic and only the
times vary.

Every answer is checked against ``reference.json`` (regenerated by
``make_reference.py``) or against a second route in the same round.  A check
that fails, and any exception an operation raises, counts as one failed
operation; the round goes on.
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# n3_pipeline: n=3 is small enough to settle every function, so nothing is
# sampled and the seed changes nothing.  The two size-6 classes run on their
# representative only: a member's k=6 search takes 0.92M or 3.1M nodes
# depending on the member, and all 18 members would take about 27 s.
N3_EVERY_MEMBER_MAX_SIZE = 5

# n4_campaign: a stratified sample, so every seed settles the same mix.  At
# cap 4, 21 of the 222 classes are exact; each other class costs the same
# 508,969-node proof of "> 4", whatever the target.
CAMPAIGN_CAP = 4
CAMPAIGN_EXACT = 2
CAMPAIGN_BEYOND = 18

# n4_deep: each class proven > 5 costs the same 13.8M nodes whatever the
# orbit member.  A size-5 search stops at its first witness, and where that
# lies varies from 0.1M to 8.8M nodes with the class and the input
# transform.  So size-5 targets are canonical representatives drawn from the
# 7 classes whose k=5 search takes 215k-235k nodes, and the seed does not
# change how much work a round does.  Four of them per round put the median
# class time on a size-5 search and the slowest on the > 5 proof; one size-5
# search varies by a third from call to call on a shared host, so the median
# needs more than the two a round held at first.
DEEP_CAP = 5
DEEP_SIZE5 = 4
DEEP_SIZE5_NODES = range(200_000, 250_000)
DEEP_BEYOND = 1

MAX_FAILURES_KEPT = 20


class MissingProgramError(RuntimeError):
    """The checkout holds no ``src/aigopt`` to benchmark."""


def load_aigopt():
    """Import ``aigopt`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "aigopt" / "__init__.py").is_file():
        raise MissingProgramError(f"no aigopt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    aigopt = importlib.import_module("aigopt")
    importlib.import_module("aigopt.cli")  # the package does not import its CLI
    if Path(aigopt.__file__).resolve().parent != SRC / "aigopt":
        raise MissingProgramError(f"imported aigopt from {aigopt.__file__}, not {SRC}")
    return aigopt


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


class Tally:
    """Checked operations: how many were attempted, which failed and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(what)
        return ok


@dataclass
class RoundResult:
    wall: float = 0.0
    class_times: list[float] = field(default_factory=list)
    exact: int = 0
    inconclusive: int = 0
    store_bytes: int = 0

    @property
    def settled(self) -> int:
        return self.exact + self.inconclusive


def seeded_member(aigopt, rng: random.Random, canon):
    """A random member of ``canon``'s NPN orbit."""
    perm = list(range(canon.n))
    rng.shuffle(perm)
    transform = aigopt.npn.NpnTransform(tuple(perm), rng.randrange(1 << canon.n), rng.random() < 0.5)
    return aigopt.npn.apply_transform(canon, transform)


class Workload:
    """Set-up shared by all workloads: the class table and its check."""

    n: int

    def __init__(self, aigopt, reference: dict, seed: int, workdir: Path, tally: Tally):
        self.A = aigopt
        self.reference = reference[f"n{self.n}"]
        self.rng = random.Random(f"{type(self).__name__}:{seed}")
        self.workdir = workdir
        self.tally = tally
        self.table = table = aigopt.npn.enumerate_classes(self.n)
        self.sizes = {c["canon"]: c["size"] for c in self.reference["classes"]}
        tally.check(
            [c.canon.hex() for c in table] == list(self.sizes),
            f"enumerate_classes({self.n}) differs from the pinned class list",
        )

    def run_round(self, tracer=None) -> RoundResult:
        raise NotImplementedError

    def settle(self, r: RoundResult, canon: str, member, cap: int) -> object | None:
        """``opt_size`` on one target, timed and checked; the result if exact."""
        A, tally = self.A, self.tally
        expected = self.sizes[canon]
        cfg = A.synthesis.SynthesisConfig(max_gates=cap)
        started = time.perf_counter()
        try:
            result = A.synthesis.opt_size(member, cfg)
        except Exception as exc:  # an exception is an answer too; judged below
            result = exc
        r.class_times.append(time.perf_counter() - started)
        if isinstance(result, A.synthesis.SearchInconclusiveError):
            r.inconclusive += 1
            tally.check(
                (expected is None or expected > cap) and result.exhausted_below == cap,
                f"{member.hex()} (class {canon}): inconclusive through "
                f"k={result.exhausted_below}, pinned size {expected}",
            )
            return None
        if isinstance(result, Exception):
            tally.check(False, f"{member.hex()} (class {canon}): opt_size raised {result!r}")
            return None
        ok = (
            result.status is A.synthesis.Status.EXACT
            and result.size == expected
            and result.witness.size() == expected
            and result.witness.evaluate() == member
        )
        if not tally.check(
            ok,
            f"{member.hex()} (class {canon}): opt_size says {result.size} "
            f"[{result.status.value}], pinned {expected}",
        ):
            return None
        r.exact += 1
        return result

    def check_class(self, canon: str, member) -> None:
        got, transform = self.A.npn.canonicalize(member)
        self.tally.check(
            got.hex() == canon and self.A.npn.apply_transform(member, transform) == got,
            f"canonicalize({member.hex()}) gave {got.hex()}, expected {canon}",
        )


def _run_cli(A, tally: Tally, tracer, argv: list[str]) -> dict | None:
    """One in-process ``aigopt`` command; its JSON document when it exits 0."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer is not None else nullcontext()
    try:
        with span, redirect_stdout(out), redirect_stderr(err):
            code = A.cli.main(argv)
        doc = json.loads(out.getvalue())
    except Exception as exc:  # a crashed or garbled command is a failed operation
        tally.check(False, f"aigopt {' '.join(argv)}: {exc!r}")
        return None
    if not tally.check(code == 0, f"aigopt {' '.join(argv)} exited {code}: {err.getvalue()[-300:]}"):
        return None
    return doc


class N3Pipeline(Workload):
    """``oracle -n 3 -> graph -n 3 -> verify -n 3`` plus three second routes.

    The routes: ``opt_size`` on every function (``targets``), canonical
    classes of all 256 functions against their stored sizes, and every
    one-row repair of every stored witness.
    """

    n = 3

    def __init__(self, *args):
        super().__init__(*args)
        table, tt = self.table, self.A.truthtable.TruthTable
        self.targets = [
            (canon, tt(3, bits))
            for bits in range(256)
            if self.sizes[canon := table[table.classify(tt(3, bits))].canon.hex()] <= N3_EVERY_MEMBER_MAX_SIZE
        ]
        self.targets += [
            (canon, self.A.truthtable.parse_hex(canon, 3))
            for canon, size in self.sizes.items()
            if size > N3_EVERY_MEMBER_MAX_SIZE
        ]
        self.store = self.workdir / "n3.jsonl"

    def run_round(self, tracer=None) -> RoundResult:
        A, tally, ref = self.A, self.tally, self.reference
        r = RoundResult()
        self.store.unlink(missing_ok=True)
        store = str(self.store)
        started = time.perf_counter()

        oracle = _run_cli(A, tally, tracer, ["oracle", "-n", "3", "--store", store])
        if oracle is not None:
            max_size = max(c["size"] for c in ref["classes"])
            tally.check(
                oracle["functions"] == 256 and oracle["max_size"] == max_size,
                f"oracle: {oracle['functions']} functions, max size {oracle['max_size']}",
            )
        graph = _run_cli(A, tally, tracer, ["graph", "-n", "3", "--store", store])
        if graph is not None:
            want = ref["graph"]
            tally.check(
                graph["histogram"] == want["histogram"]
                and graph["edge_total"] == want["edge_total"]
                and graph["exact_edge_total"] == want["exact_edge_total"],
                f"graph: histogram {graph['histogram']} over {graph['edge_total']} edges, "
                f"pinned {want['histogram']} over {want['edge_total']}",
            )
        verify = _run_cli(A, tally, tracer, ["verify", "-n", "3", "--store", store])
        if verify is not None:
            tally.check(
                verify["holds"] is ref["graph"]["holds"]
                and verify["max_delta"] == ref["graph"]["max_delta"],
                f"verify: holds={verify['holds']} max_delta={verify['max_delta']}",
            )

        try:
            loaded = A.store.load_store(store)
        except (OSError, ValueError) as exc:
            tally.check(False, f"load_store: {exc!r}")
            loaded = None
        stored = {}
        if loaded is not None:
            for issue in loaded.issues:
                tally.check(False, f"store line {issue.line_number} rejected: {issue.reason}")
            stored = loaded.by_bits()
            tally.check(len(stored) == 256, f"store holds {len(stored)} of 256 functions")
            r.store_bytes = self.store.stat().st_size

        for canon, member in self.targets:
            self.settle(r, canon, member, cap=8)
        self._check_sizes_by_class(stored)
        self._check_repairs(stored)
        r.wall = time.perf_counter() - started
        return r

    def _check_sizes_by_class(self, stored: dict) -> None:
        """Every function's stored size equals its class's pinned size."""
        A, tally = self.A, self.tally
        for bits in range(256):
            tt = A.truthtable.TruthTable(3, bits)
            canon, _ = A.npn.canonicalize(tt)
            rec = stored.get(bits)
            tally.check(
                rec is not None and rec.size == self.sizes.get(canon.hex()),
                f"{tt.hex()} (class {canon.hex()}): stored size "
                f"{None if rec is None else rec.size}, pinned {self.sizes.get(canon.hex())}",
            )

    def _check_repairs(self, stored: dict) -> None:
        """Every one-row flip of every stored witness, certified and bounded."""
        A, tally = self.A, self.tally
        for bits, rec in sorted(stored.items()):
            witness = A.aig.from_aiger(rec.witness_aag)
            for row in range(8):
                xstar = A.truthtable.Assignment(3, row)
                repair = A.repair.repair_clear if (bits >> row) & 1 else A.repair.repair_set
                flipped = bits ^ (1 << row)
                try:
                    repaired, report = repair(witness, xstar)
                except (ValueError, AssertionError) as exc:
                    tally.check(False, f"repair of {rec.tt_hex} row {row}: {exc!r}")
                    continue
                neighbour = stored.get(flipped)
                tally.check(
                    repaired.evaluate().bits == flipped
                    and report.output_size <= rec.size + 3
                    and neighbour is not None
                    and abs(neighbour.size - rec.size) <= 3,
                    f"repair of {rec.tt_hex} row {row}: {report.output_size} gates "
                    f"(bound {rec.size + 3})",
                )


class N4Campaign(Workload):
    """A seeded, stratified sample of n=4 classes at ``max_gates=4``."""

    n = 4

    def __init__(self, *args):
        super().__init__(*args)
        parse = self.A.truthtable.parse_hex
        exact = [h for h, s in self.sizes.items() if s is not None and s <= CAMPAIGN_CAP]
        beyond = [h for h in self.sizes if h not in exact]
        picks = self.rng.sample(exact, CAMPAIGN_EXACT) + self.rng.sample(beyond, CAMPAIGN_BEYOND)
        self.rng.shuffle(picks)
        self.targets = [(h, seeded_member(self.A, self.rng, parse(h, 4))) for h in picks]
        self.store = self.workdir / "n4.jsonl"

    def run_round(self, tracer=None) -> RoundResult:
        A, tally = self.A, self.tally
        r = RoundResult()
        self.store.unlink(missing_ok=True)
        appended = {}
        started = time.perf_counter()
        for canon, member in self.targets:
            self.check_class(canon, member)
            result = self.settle(r, canon, member, CAMPAIGN_CAP)
            if result is None:
                continue
            try:
                A.store.append_record(self.store, A.store.record_from_result(result))
            except (OSError, ValueError) as exc:
                tally.check(False, f"append_record({member.hex()}): {exc!r}")
                continue
            appended[member.hex()] = result.size
        if appended:
            loaded = A.store.load_store(self.store)
            for issue in loaded.issues:
                tally.check(False, f"store line {issue.line_number} rejected: {issue.reason}")
            got = {h: rec.size for h, rec in loaded.best.items()}
            tally.check(got == appended, f"store reads back {got}, appended {appended}")
            r.store_bytes = self.store.stat().st_size
        r.wall = time.perf_counter() - started
        return r


class N4Deep(Workload):
    """Seeded size-5 classes and classes proven > 5, at ``max_gates=5``."""

    n = 4

    def __init__(self, *args):
        super().__init__(*args)
        parse = self.A.truthtable.parse_hex
        size5 = [
            c["canon"]
            for c in self.reference["classes"]
            if c["size"] == DEEP_CAP and c["nodes"][DEEP_CAP] in DEEP_SIZE5_NODES
        ]
        beyond = [h for h, s in self.sizes.items() if s is None]
        self.targets = [(h, parse(h, 4)) for h in self.rng.sample(size5, DEEP_SIZE5)]
        self.targets += [
            (h, seeded_member(self.A, self.rng, parse(h, 4)))
            for h in self.rng.sample(beyond, DEEP_BEYOND)
        ]

    def run_round(self, tracer=None) -> RoundResult:
        r = RoundResult()
        started = time.perf_counter()
        for canon, member in self.targets:
            self.check_class(canon, member)
            self.settle(r, canon, member, DEEP_CAP)
        r.wall = time.perf_counter() - started
        return r


WORKLOADS = {"n3_pipeline": N3Pipeline, "n4_campaign": N4Campaign, "n4_deep": N4Deep}
