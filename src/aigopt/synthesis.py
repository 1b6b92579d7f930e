"""Exact minimum AIG sizes by exhaustive enumeration.

Three routes live here:

* ``exists_circuit`` / ``opt_size`` — per-function iterative-deepening search
  over a canonical, symmetry-broken circuit space.  This is the one engine
  that answers size queries, the ``oracle`` command's included;
  ``SynthesisConfig`` sets only its gate cap and per-query time budget.
* ``brute_oracle`` — an independent breadth-first sweep over reachable
  function sets for n <= 3, covering every function at once.  It returns
  sizes only, shares no search code with the per-function route and is the
  reference the tests check that route against.
* ``encode_cnf`` / ``decode_model`` — a DIMACS export/import path so an
  external SAT solver can answer the same per-(function, k) question.  No
  solver is embedded.

Enumeration canonical form: gates occupy nodes n+1..n+k in creation order,
fanin pairs are sorted, the last gate is the output root, and a gate that
does not use its immediate predecessor must carry a fanin signature
lexicographically >= the predecessor's.  Every circuit has at least one
topological order satisfying these constraints (place the smallest-signature
ready gate first), so exhausting the canonical space is exhaustive up to
isomorphism.  A gate's choices depend only on n, its largest fanin node m and
the previous gate's signature, so ``_gate_choices`` caches them per (n, m) as
pre-merged lists ``after[cut]``, one per rank of that signature.

The search always applies five reductions.  Each keeps some minimum-size
witness, because a circuit that breaks one of the first four can be made
smaller and the fifth only skips states already explored:

* no constant fanin — ``c AND x`` is the constant 0 or ``x`` itself, so the
  gate can be replaced by that node;
* no complement pair — a gate never reads one node twice; ``x AND NOT x`` is
  the constant 0 and ``x AND x`` is ``x``;
* every gate used — a gate that no later gate reads (and that is not the
  output root) can be deleted;
* no duplicate function — a gate that recomputes, up to complement, the
  function of a constant, an input or an earlier gate can be replaced by a
  (complemented) edge to that node;
* failed-state memo — the rest of the search depends only on the gate
  values so far, the last signature and the set of unread gates, so a state
  once proven dead is skipped when another prefix reaches it again.

The last gate is decided without walking its list.  It must compute the
target up to complement, which no earlier node may already compute, and it
must read every unread gate.  Beyond k = 1 the gate just placed is always
unread, and the slack prune leaves at most one other unread gate, so only
the pairs that read the newest gate (and that other gate, if any) can close
the circuit; ``closers`` lists them.  ``nodes_visited`` still counts what a
walk of the whole list would: every pair up to the first that closes, which
is the witness such a walk returns, or the whole list when none does.  The
node counts therefore stay the regression gates they were.

The CNF encoding carries the first four.  Because the reductions forbid
redundant gates, ``exists_circuit(tt, k)`` may report k infeasible for k above
the optimum (a constant has no witness at any k >= 1); only the upward
iteration of ``opt_size`` yields sizes.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .aig import AigCircuit, AndGate, Literal
from .truthtable import TruthTable, var_table


class Status(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"


@dataclass(frozen=True, slots=True)
class SynthesisConfig:
    max_gates: int = 16
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if self.max_gates < 0:
            raise ValueError("max_gates must be >= 0")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


DEFAULT_CONFIG = SynthesisConfig()


@dataclass(frozen=True, slots=True)
class ExistsOutcome:
    """Result of one (function, gate count) existence query.

    Exactly one of three shapes: a witness circuit; proven infeasibility
    (the full pruned canonical space was exhausted); or a budget stop,
    which is never conflated with infeasibility.
    """

    witness: AigCircuit | None
    proven_infeasible: bool
    nodes_visited: int
    elapsed: float

    @property
    def budget_exhausted(self) -> bool:
        return self.witness is None and not self.proven_infeasible


@dataclass(frozen=True, slots=True)
class OptResult:
    tt: TruthTable
    size: int
    status: Status
    witness: AigCircuit
    exhausted_below: int
    elapsed: float


class SearchInconclusiveError(RuntimeError):
    """max_gates reached without a witness; carries the proven floor."""

    def __init__(self, tt: TruthTable, max_gates: int, exhausted_below: int):
        super().__init__(
            f"no circuit with <= {max_gates} gates found for {tt.hex()} "
            f"(infeasibility proven through k={exhausted_below})"
        )
        self.tt = tt
        self.max_gates = max_gates
        self.exhausted_below = exhausted_below


class _BudgetExceeded(Exception):
    pass


def _pack_sig(j0: int, c0: int, j1: int, c1: int) -> int:
    # Orders candidates lexicographically by (j0, c0, j1, c1).
    return (((j0 << 1) | c0) << 10) | ((j1 << 1) | c1)


def _candidate_pairs(max_node: int, mask: int):
    """Fanin pairs of two distinct non-constant nodes up to max_node,
    signature-sorted.

    Tuples are (sig, j0, xor0, j1, xor1) where xor = mask for a complemented
    edge, 0 otherwise.
    """
    out = []
    for j0 in range(1, max_node + 1):
        for j1 in range(j0 + 1, max_node + 1):
            for c0 in (0, 1):
                for c1 in (0, 1):
                    out.append(
                        (
                            _pack_sig(j0, c0, j1, c1),
                            j0,
                            mask if c0 else 0,
                            j1,
                            mask if c1 else 0,
                        )
                    )
    out.sort()
    return out


@lru_cache(maxsize=None)
def _gate_choices(n: int, m: int):
    """``(sigs, after, closers)`` for a gate whose largest fanin node is m: the
    sorted signatures of the pairs over nodes < m, and per rank ``cut`` the
    pairs that read node m merged with those older pairs from ``cut`` on,
    signature-sorted.  For each gate node a < m, ``closers[1 << a]`` holds the
    pairs (a, m); ``closers[0]`` holds every pair that reads m.  Both are
    signature-sorted and key on the unread gates other than m.
    """
    mask = (1 << (1 << n)) - 1
    older = _candidate_pairs(m - 1, mask)
    fresh = [c for c in _candidate_pairs(m, mask) if c[3] == m]
    sigs = [c[0] for c in older]
    after = [sorted(fresh + older[cut:]) for cut in range(len(older) + 1)]
    closers = {0: fresh}
    for a in range(n + 1, m):
        closers[1 << a] = [c for c in fresh if c[1] == a]
    return sigs, after, closers


def _trivial_witness(tt: TruthTable) -> AigCircuit | None:
    """Zero-gate circuit for constants and bare literals, else None."""
    if tt.bits == 0:
        return AigCircuit(tt.n, (), Literal(0, False))
    if tt.bits == tt.mask:
        return AigCircuit(tt.n, (), Literal(0, True))
    for i in range(tt.n):
        v = var_table(tt.n, i).bits
        if tt.bits == v:
            return AigCircuit(tt.n, (), Literal(i + 1, False))
        if tt.bits == v ^ tt.mask:
            return AigCircuit(tt.n, (), Literal(i + 1, True))
    return None


_MEMO_CAP = 1 << 20


def exists_circuit(
    tt: TruthTable, k: int, cfg: SynthesisConfig = DEFAULT_CONFIG
) -> ExistsOutcome:
    """Search for a k-gate AIG computing ``tt`` in the canonical space."""
    if k < 0:
        raise ValueError("gate count must be >= 0")
    start = time.monotonic()
    if k == 0:
        witness = _trivial_witness(tt)
        return ExistsOutcome(witness, witness is None, 0, time.monotonic() - start)

    n = tt.n
    mask = tt.mask
    target = tt.bits
    target_c = target ^ mask
    target_n = min(target, target_c)
    deadline = None if cfg.time_budget is None else start + cfg.time_budget

    values = [0] * (n + 1 + k)
    seen = {0}
    for i in range(1, n + 1):
        v = values[i] = var_table(n, i - 1).bits
        seen.add(min(v, v ^ mask))

    chain: list[tuple[int, int, int, int, int]] = []
    memo: set = set()
    nodes_visited = 0

    def search(node: int, prev_sig: int, no_fanout: int) -> AigCircuit | None:
        """Place the gate at ``node``; ``no_fanout`` is a bitmask of unread gates."""
        nonlocal nodes_visited
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded

        # The first gate has prev_sig = -1, which keeps every pair.
        sigs, after, closers = _gate_choices(n, node - 1)
        pairs = after[bisect_left(sigs, prev_sig)]

        if node == n + k:
            # Every pair is counted as visited up to the first that closes
            # the circuit, or all of them when none does.
            if target_n not in seen:
                # Beyond k = 1 the gate just placed is unread, so only pairs
                # that read it can close; the slack prune left at most one
                # other unread gate, which the pair must read too.
                scan = closers[no_fanout ^ (1 << (node - 1))] if no_fanout else pairs
                for cand in scan:
                    _, j0, x0, j1, x1 = cand
                    v = (values[j0] ^ x0) & (values[j1] ^ x1)
                    if v == target or v == target_c:
                        nodes_visited += pairs.index(cand) + 1
                        return _chain_to_circuit(
                            n, chain + [cand], complement=(v == target_c)
                        )
            nodes_visited += len(pairs)
            return None

        slack = 2 * (n + k - node)
        prefix = tuple(values[n + 1 : node])
        for cand in pairs:
            sig, j0, x0, j1, x1 = cand
            nodes_visited += 1
            v = (values[j0] ^ x0) & (values[j1] ^ x1)
            vn = v if v <= v ^ mask else v ^ mask
            if vn in seen:
                continue

            new_no_fanout = (no_fanout | (1 << node)) & ~((1 << j0) | (1 << j1))
            if new_no_fanout.bit_count() > slack:
                continue

            key = (prefix, v, sig, new_no_fanout)
            if key in memo:
                continue

            values[node] = v
            seen.add(vn)
            chain.append(cand)

            found = search(node + 1, sig, new_no_fanout)

            chain.pop()
            seen.discard(vn)

            if found is not None:
                return found
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo.add(key)
        return None

    try:
        witness = search(n + 1, -1, 0)
    except _BudgetExceeded:
        return ExistsOutcome(None, False, nodes_visited, time.monotonic() - start)
    return ExistsOutcome(
        witness, witness is None, nodes_visited, time.monotonic() - start
    )


def _chain_to_circuit(n: int, chain, complement: bool) -> AigCircuit:
    gates = tuple(
        AndGate(Literal(j0, bool(x0)), Literal(j1, bool(x1)))
        for _, j0, x0, j1, x1 in chain
    )
    return AigCircuit(n, gates, Literal(n + len(gates), complement))


def opt_size(tt: TruthTable, cfg: SynthesisConfig = DEFAULT_CONFIG) -> OptResult:
    """Minimum gate count by iterative deepening.

    Status is Exact only when every smaller gate count was fully exhausted;
    any budget interruption on the way up downgrades the result to an upper
    bound.  ``exhausted_below`` is the largest gate count proven infeasible.
    """
    start = time.monotonic()
    k0 = 0 if _trivial_witness(tt) is not None else 1
    # k=0 is decided exactly by the trivial-witness check either way.
    exhausted_below = -1 if k0 == 0 else 0
    contiguous = True
    for k in range(k0, cfg.max_gates + 1):
        outcome = exists_circuit(tt, k, cfg)
        if outcome.witness is not None:
            return OptResult(
                tt=tt,
                size=k,
                status=Status.EXACT if contiguous else Status.UPPER_BOUND,
                witness=outcome.witness,
                exhausted_below=exhausted_below,
                elapsed=time.monotonic() - start,
            )
        if outcome.proven_infeasible:
            exhausted_below = k
        else:
            contiguous = False
    raise SearchInconclusiveError(tt, cfg.max_gates, exhausted_below)


# ---------------------------------------------------------------------------
# Brute-force oracle: breadth-first over reachable function sets (n <= 3).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OracleEntry:
    size: int


def brute_oracle(n: int) -> dict[int, OracleEntry]:
    """Exact sizes for every n-variable function, n <= 3.

    Breadth-first over circuit prefixes: a state is the set of gate output
    functions built so far (inputs implicit), each normalized up to
    complement, and it is expanded from those functions alone, since a
    fanin may be complemented for free.  Level k states are exactly the
    function sets realizable by k-gate circuits, so the first level at which
    a function appears is its exact optimum.  This is a genuine
    circuit-space search; function sizes are never summed.  It returns sizes
    only and serves as the reference the per-function route is tested
    against.
    """
    if not 1 <= n <= 3:
        raise ValueError("brute oracle supports n <= 3 only")
    rows = 1 << n
    mask = (1 << rows) - 1
    inputs = [var_table(n, i).bits for i in range(n)]

    sizes = {0: 0, mask: 0}
    for v in inputs:
        sizes[v] = sizes[v ^ mask] = 0
    uncovered = (1 << rows) - len(sizes)
    base_patterns = {0} | {min(v, v ^ mask) for v in inputs}

    # State key: gate patterns sorted and packed ``rows`` bits apiece.
    frontier = {0}
    level = 0
    while uncovered:
        if not frontier:
            raise RuntimeError(
                f"oracle frontier ran out at level {level} with {uncovered} "
                "functions uncovered"
            )
        level += 1
        next_frontier = set()
        for key in frontier:
            pats = []
            for _ in range(level - 1):
                pats.append(key & mask)
                key >>= rows
            known = base_patterns.union(pats)
            nodes = inputs + pats
            for a, va in enumerate(nodes):
                na = va ^ mask
                for vb in nodes[a + 1 :]:
                    nb = vb ^ mask
                    for v in (va & vb, va & nb, na & vb, na & nb):
                        vn = v if v <= v ^ mask else v ^ mask
                        if vn in known:
                            continue
                        packed = 0
                        for p in sorted(pats + [vn], reverse=True):
                            packed = (packed << rows) | p
                        next_frontier.add(packed)
                        if v not in sizes:
                            sizes[v] = sizes[v ^ mask] = level
                            uncovered -= 2
            if not uncovered:
                break
        frontier = next_frontier
    return {bits: OracleEntry(size) for bits, size in sizes.items()}


# ---------------------------------------------------------------------------
# CNF export / model import for external SAT solvers.
# ---------------------------------------------------------------------------


class _CnfLayout:
    """Deterministic variable numbering shared by encoder and decoder."""

    def __init__(self, n: int, k: int):
        if k < 1:
            raise ValueError("CNF encoding requires k >= 1")
        self.n = n
        self.k = k
        self.rows = 1 << n
        mask = (1 << self.rows) - 1
        self.candidates = {
            i: _candidate_pairs(n + i - 1, mask) for i in range(1, k + 1)
        }
        nv = 0
        self.sel_base = {}
        for i in range(1, k + 1):
            self.sel_base[i] = nv + 1
            nv += len(self.candidates[i])
        self.val_base = {}
        for i in range(1, k + 1):
            self.val_base[i] = nv + 1
            nv += self.rows
        self.out_var = nv + 1
        nv += 1
        self.aux_start = nv + 1
        self.num_vars = nv  # distinctness aux vars are appended by the encoder

    def sel_var(self, i: int, cand_index: int) -> int:
        return self.sel_base[i] + cand_index

    def val_var(self, i: int, row: int) -> int:
        return self.val_base[i] + row


def _fanin_row_literal(layout: _CnfLayout, node: int, comp: int, row: int):
    """Either a constant 0/1 or a signed CNF literal for node value at row."""
    n = layout.n
    if node == 0:
        return ("const", comp)
    if node <= n:
        bit = (row >> (node - 1)) & 1
        return ("const", bit ^ comp)
    gate = node - n
    var = layout.val_var(gate, row)
    return ("var", -var if comp else var)


def encode_cnf(tt: TruthTable, k: int) -> str:
    """DIMACS CNF satisfiable iff a k-gate AIG in the pruned canonical
    space computes ``tt``.

    The symmetry-breaking gate order used by the enumeration backend is not
    encoded because it never changes satisfiability.  The variable layout is
    documented in the comment header and is reproduced by ``decode_model``.
    """
    layout = _CnfLayout(tt.n, k)
    n, rows = tt.n, layout.rows
    clauses: list[tuple[int, ...]] = []
    num_vars = layout.num_vars

    def new_var() -> int:
        nonlocal num_vars
        num_vars += 1
        return num_vars

    for i in range(1, k + 1):
        cands = layout.candidates[i]
        sel = [layout.sel_var(i, t) for t in range(len(cands))]
        clauses.append(tuple(sel))
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                clauses.append((-sel[a], -sel[b]))
        for t, (_, j0, x0, j1, x1) in enumerate(cands):
            s = sel[t]
            c0 = 1 if x0 else 0
            c1 = 1 if x1 else 0
            for r in range(rows):
                v = layout.val_var(i, r)
                fa = _fanin_row_literal(layout, j0, c0, r)
                fb = _fanin_row_literal(layout, j1, c1, r)
                consts = [x[1] for x in (fa, fb) if x[0] == "const"]
                lits = [x[1] for x in (fa, fb) if x[0] == "var"]
                if 0 in consts:
                    clauses.append((-s, -v))
                elif not lits:
                    clauses.append((-s, v))  # both fanins constant 1
                elif len(lits) == 1:
                    clauses.append((-s, -lits[0], v))
                    clauses.append((-s, lits[0], -v))
                else:
                    la, lb = lits
                    clauses.append((-s, -la, -lb, v))
                    clauses.append((-s, la, -v))
                    clauses.append((-s, lb, -v))

    # Output: value of gate k, complemented when the polarity var is true.
    o = layout.out_var
    for r in range(rows):
        v = layout.val_var(k, r)
        if (tt.bits >> r) & 1:
            clauses.append((v, o))
            clauses.append((-v, -o))
        else:
            clauses.append((-v, o))
            clauses.append((v, -o))

    # Every gate but the root is read by some later gate.
    for g in range(1, k):
        node = n + g
        users = [
            layout.sel_var(i, t)
            for i in range(g + 1, k + 1)
            for t, (_, j0, _x0, j1, _x1) in enumerate(layout.candidates[i])
            if j0 == node or j1 == node
        ]
        clauses.append(tuple(users))

    # No gate recomputes a constant, an input or an earlier gate, up to
    # complement.
    fixed = [0] + [var_table(n, i).bits for i in range(n)]
    for i in range(1, k + 1):
        for pattern in fixed:
            for target in (pattern, pattern ^ tt.mask):
                clause = []
                for r in range(rows):
                    v = layout.val_var(i, r)
                    clause.append(v if not (target >> r) & 1 else -v)
                clauses.append(tuple(clause))
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            # differ somewhere, and differ from the complement somewhere
            for want_equal in (False, True):
                marks = []
                for r in range(rows):
                    vi = layout.val_var(i, r)
                    vj = layout.val_var(j, r)
                    d = new_var()
                    if want_equal:
                        clauses.append((-d, vi, -vj))
                        clauses.append((-d, -vi, vj))
                    else:
                        clauses.append((-d, vi, vj))
                        clauses.append((-d, -vi, -vj))
                    marks.append(d)
                clauses.append(tuple(marks))

    header = [
        "c aigopt exact-synthesis query",
        f"c n={n} k={k} tt={tt.hex()}",
        "c rows r=0..2^n-1; row r assigns x_i = (r >> i) & 1",
        "c gate i (1..k) sits at node n+i; fanin candidates are (j0,c0,j1,c1)",
        "c pairs of distinct non-constant nodes (1..n=inputs, then gates), "
        "sorted by (j0,c0,j1,c1)",
        "c constraints: every gate but the root is read; no gate recomputes a "
        "constant, an input or an earlier gate up to complement",
    ]
    for i in range(1, k + 1):
        base = layout.sel_base[i]
        count = len(layout.candidates[i])
        header.append(
            f"c gate {i}: selection vars {base}..{base + count - 1} "
            f"({count} candidates), value vars "
            f"{layout.val_base[i]}..{layout.val_base[i] + rows - 1}"
        )
    header.append(f"c output polarity var {layout.out_var} (true = complemented)")
    if num_vars >= layout.aux_start:
        header.append(f"c distinctness aux vars {layout.aux_start}..{num_vars}")

    lines = header + [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(str(x) for x in clause) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def decode_model(model_text: str, k: int, n: int) -> AigCircuit | None:
    """Rebuild the circuit from a solver model for an ``encode_cnf`` query.

    Accepts plain signed-integer assignments terminated by 0, optional
    "v"/"s" DIMACS output prefixes, and an UNSAT token (returns None).
    """
    tokens: list[str] = []
    for line in model_text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        parts = stripped.split()
        if parts[0] in ("v", "s"):
            parts = parts[1:]
        tokens.extend(parts)
    norm = {t.upper().rstrip(".") for t in tokens}
    if "UNSAT" in norm or "UNSATISFIABLE" in norm:
        return None
    assignment: set[int] = set()
    for t in tokens:
        if t.upper() in ("SAT", "SATISFIABLE"):
            continue
        try:
            value = int(t)
        except ValueError:
            raise ValueError(f"unexpected token {t!r} in model") from None
        if value == 0:
            continue
        assignment.add(value)

    layout = _CnfLayout(n, k)
    gates = []
    for i in range(1, k + 1):
        chosen = [
            t
            for t in range(len(layout.candidates[i]))
            if layout.sel_var(i, t) in assignment
        ]
        if len(chosen) != 1:
            raise ValueError(
                f"model inconsistent with layout: gate {i} has "
                f"{len(chosen)} selected candidates"
            )
        _, j0, x0, j1, x1 = layout.candidates[i][chosen[0]]
        gates.append(AndGate(Literal(j0, bool(x0)), Literal(j1, bool(x1))))
    complement = layout.out_var in assignment
    return AigCircuit(n, tuple(gates), Literal(n + k, complement))
