"""Exact minimum AIG sizes by exhaustive enumeration.

Three routes live here:

* ``exists_circuit`` / ``opt_size`` — iterative-deepening search over a
  canonical, symmetry-broken circuit space for any function in the target's
  NPN orbit.  This is the one engine that answers size queries, the
  ``oracle`` command's included; ``SynthesisConfig`` sets only its gate cap
  and per-query time budget.
* ``brute_oracle`` — an independent breadth-first sweep over reachable
  function sets for n <= 3, covering every function at once.  It returns
  sizes only, shares no search code with the orbit search and is the
  reference the tests check that route against.
* ``encode_cnf`` / ``decode_model`` — a DIMACS export/import path so an
  external SAT solver can answer the same per-(function, k) question.  One
  numbering function, ``_cnf_layout``, is shared by the encoder and the
  decoder, and the decoder builds its circuit with the search's
  ``_chain_to_circuit``.  No solver is embedded.

The target is the orbit.  Input negation, input permutation and output
negation never change a circuit's gate count, so a k-gate circuit for any
member of the target's NPN orbit (``npn.orbit_positions``) answers the
query: the search accepts a last gate whose value lies in the orbit, then
``npn.retarget`` maps the witness back to the target.

Enumeration canonical form: gates occupy nodes n+1..n+k in creation order,
fanin pairs are sorted, the last gate is the output root, and a gate that
does not use its immediate predecessor must carry a fanin signature
lexicographically >= the predecessor's.  Every circuit has at least one
topological order satisfying these constraints (place the smallest-signature
ready gate first), so exhausting the canonical space is exhaustive up to
isomorphism.  A gate's choices depend only on n, its largest fanin node m and
the previous gate's signature, so ``_gate_choices`` caches them per (n, m) as
pre-merged lists ``after[cut]``, one per rank of that signature.

Because any orbit member is a hit, an input transform may be applied to a
witness before it is put in that order, and two symmetry cuts follow.  Both
lists are built on first use and cached per n.

* Gate 1 is x0 AND x1.  The first gate placed reads two inputs; an input
  transform turns it into x0 AND x1, which has the smallest signature of all
  pairs, so the greedy order places it first.
* Gate 2 is minimal in its orbit.  Let H be the 2 * (n-2)! * 2^(n-2) input
  transforms that fix x0 AND x1 (swap x0 and x1 or not, permute and negate
  the other inputs).  Apply the element of H that makes the smallest
  signature among the gates ready after gate 1 as small as possible; the
  greedy order places that gate second, and no element of H gives it a
  smaller signature.  So gate 2 only takes pairs whose signature is the
  smallest in their H-orbit: 12 of the 40 pairs at n = 4.

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
  once proven dead is skipped when another prefix reaches it again.  States
  at the second-to-last gate are not stored: each is decided by one
  closed-form last-gate step, and they would be most of the memo.

The last gate is decided without walking its list.  It must compute an orbit
member, and no earlier node may already compute one up to complement (that
node would be a smaller witness).  It must also read every unread gate.
Beyond k = 1 the gate just placed is always unread, and the slack prune
leaves at most one other unread gate, so only the pairs that read the newest
gate (and that other gate, if any) can close the circuit; ``closers`` lists
them.  ``nodes_visited`` still counts what a walk of the whole list would:
every pair up to the first that closes, which is the witness such a walk
returns, or the whole list when none does.  The node counts therefore stay
regression gates.

The CNF encoding carries the first four reductions, and neither symmetry cut.
Because the reductions forbid redundant gates, ``exists_circuit(tt, k)`` may
report k infeasible for k above the optimum (a constant has no witness at
any k >= 1); only the upward iteration of ``opt_size`` yields sizes.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .aig import AigCircuit, AndGate, Literal
from .npn import orbit_positions, retarget
from .truthtable import TruthTable, var_table


class Status(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"


# ``_gate_choices`` builds ~|pairs|^2 / 2 entries per gate node before a budget
# can stop anything: at n = 6, peak RSS is 73 MB for 32 gates and 809 MB for 60.
# The cap also keeps node indices inside ``_pack_sig``'s 10-bit field.
MAX_GATES = 32


@dataclass(frozen=True, slots=True)
class SynthesisConfig:
    max_gates: int = 16
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.max_gates <= MAX_GATES:
            raise ValueError(f"max_gates must be in 0..{MAX_GATES}, got {self.max_gates}")
        # NaN compares false, so only this form rejects it; inf means no limit.
        if self.time_budget is not None and not self.time_budget > 0:
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

    Gates 1 and 2 (m = n and m = n + 1) take the symmetry-cut lists instead,
    with no signatures, so every rank reads ``after[0]``.
    """
    mask = (1 << (1 << n)) - 1
    if m == n:
        first = [(_pack_sig(1, 0, 2, 0), 1, 0, 2, 0)] if n > 1 else []
        return [], [first], {}
    if m == n + 1:
        second = _orbit_minimal_pairs(n, _candidate_pairs(m, mask))
        return [], [second], {0: [c for c in second if c[3] == m]}
    older = _candidate_pairs(m - 1, mask)
    fresh = [c for c in _candidate_pairs(m, mask) if c[3] == m]
    sigs = [c[0] for c in older]
    after = [sorted(fresh + older[cut:]) for cut in range(len(older) + 1)]
    closers = {0: fresh}
    for a in range(n + 1, m):
        closers[1 << a] = [c for c in fresh if c[1] == a]
    return sigs, after, closers


def _orbit_minimal_pairs(n: int, pairs):
    """The pairs over nodes 1..n+1 whose signature is the smallest in their
    orbit under the input transforms that fix gate 1, x0 AND x1."""
    maps = []
    for first in ((1, 2), (2, 1)):
        for rest in itertools.permutations(range(3, n + 1)):
            node = (0, *first, *rest, n + 1)
            for neg in range(1 << (n - 2)):
                maps.append((node, neg << 3))  # bit j negates input node j

    def image_sig(node, neg, j0, c0, j1, c1):
        a = (node[j0], c0 ^ ((neg >> j0) & 1))
        b = (node[j1], c1 ^ ((neg >> j1) & 1))
        return _pack_sig(*min(a, b), *max(a, b))

    keep = []
    for cand in pairs:
        sig, j0, x0, j1, x1 = cand
        c0, c1 = int(x0 != 0), int(x1 != 0)
        if all(sig <= image_sig(node, neg, j0, c0, j1, c1) for node, neg in maps):
            keep.append(cand)
    return keep


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
    """Search for a k-gate AIG computing ``tt``.

    The canonical space is searched for a circuit computing any member of
    ``tt``'s NPN orbit; a witness is mapped back to ``tt`` before it is
    returned.
    """
    if k < 0:
        raise ValueError("gate count must be >= 0")
    if k == 0:
        start = time.monotonic()
        witness = _trivial_witness(tt)
        return ExistsOutcome(witness, witness is None, 0, time.monotonic() - start)

    n = tt.n
    mask = tt.mask
    # The orbit is built before the clock starts: the budget bounds the
    # search, not this fixed set-up (~60 ms at n = 6) that every k shares.
    # It is closed under complement, so the set of its patterns also holds
    # every pattern normalized up to complement; the last-gate test runs
    # faster against a set than against the dict's keys.
    targets = orbit_positions(tt)
    targets_n = frozenset(targets)
    start = time.monotonic()
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

        # The first two gates ignore prev_sig: their lists have one rank.
        sigs, after, closers = _gate_choices(n, node - 1)
        pairs = after[bisect_left(sigs, prev_sig)]

        if node == n + k:
            # Every pair is counted as visited up to the first that closes
            # the circuit, or all of them when none does.
            if seen.isdisjoint(targets_n):
                # Beyond k = 1 the gate just placed is unread, so only pairs
                # that read it can close; the slack prune left at most one
                # other unread gate, which the pair must read too.
                scan = closers[no_fanout ^ (1 << (node - 1))] if no_fanout else pairs
                for cand in scan:
                    _, j0, x0, j1, x1 = cand
                    v = (values[j0] ^ x0) & (values[j1] ^ x1)
                    if v in targets:
                        nodes_visited += pairs.index(cand) + 1
                        found = _chain_to_circuit(n, chain + [cand], complement=False)
                        return retarget(found, tt)
            nodes_visited += len(pairs)
            return None

        slack = 2 * (n + k - node)
        memoise = node < n + k - 1
        prefix = tuple(values[n + 1 : node]) if memoise else None
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

            if memoise:
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
            if memoise:
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
    exhausted_below = -1
    contiguous = True
    for k in range(cfg.max_gates + 1):
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


def _cnf_layout(n: int, k: int):
    """Variable numbering shared by ``encode_cnf`` and ``decode_model``.

    Returns ``(candidates, sel_base, out_var)``: gate i's (1..k) fanin pairs
    ``candidates[i - 1]``, numbered from selection variable ``sel_base[i - 1]``
    on, and the output polarity variable.  The 2^n value variables of each gate
    sit in gate order between the last selection variable and ``out_var``, so
    gate i's value on row r is ``out_var - (k + 1 - i) * 2^n + r``.
    """
    if k < 1:
        raise ValueError("CNF encoding requires k >= 1")
    mask = (1 << (1 << n)) - 1
    candidates = [_candidate_pairs(n + i - 1, mask) for i in range(1, k + 1)]
    sel_base = []
    nv = 0
    for cands in candidates:
        sel_base.append(nv + 1)
        nv += len(cands)
    return candidates, sel_base, nv + k * (1 << n) + 1


def encode_cnf(tt: TruthTable, k: int) -> str:
    """DIMACS CNF satisfiable iff a k-gate AIG in the pruned canonical
    space computes ``tt``.

    The symmetry-breaking gate order used by the enumeration backend is not
    encoded because it never changes satisfiability.  The variable layout is
    documented in the comment header and is reproduced by ``decode_model``.
    """
    n, rows = tt.n, tt.rows
    candidates, sel_base, out_var = _cnf_layout(n, k)
    # values[i - 1][r] is gate i's value variable on row r.
    values = [range(v, v + rows) for v in range(out_var - k * rows, out_var, rows)]
    clauses: list[tuple[int, ...]] = []

    for cands, base, gate_vals in zip(candidates, sel_base, values):
        sel = range(base, base + len(cands))
        clauses.append(tuple(sel))
        for a in range(len(sel)):
            for b in range(a + 1, len(sel)):
                clauses.append((-sel[a], -sel[b]))
        for s, (_, j0, x0, j1, x1) in zip(sel, cands):
            for r, v in enumerate(gate_vals):
                # An input fanin is a constant on each row; a gate fanin is a
                # signed value literal.  A constant 0 forces the gate to 0,
                # otherwise the gate is the AND of its literal fanins.
                zero = False
                lits = []
                for j, x in ((j0, x0), (j1, x1)):
                    if j <= n:
                        zero |= ((r >> (j - 1)) & 1) == bool(x)
                    else:
                        lit = values[j - n - 1][r]
                        lits.append(-lit if x else lit)
                if zero:
                    clauses.append((-s, -v))
                    continue
                clauses.append((-s, *(-lit for lit in lits), v))
                clauses.extend((-s, lit, -v) for lit in lits)

    # Output: value of gate k, complemented when the polarity var is true.
    for r, v in enumerate(values[-1]):
        if (tt.bits >> r) & 1:
            clauses.append((v, out_var))
            clauses.append((-v, -out_var))
        else:
            clauses.append((-v, out_var))
            clauses.append((v, -out_var))

    # Every gate but the root is read by some later gate.
    for g in range(1, k):
        node = n + g
        users = [
            base + t
            for cands, base in zip(candidates[g:], sel_base[g:])
            for t, (_, j0, _x0, j1, _x1) in enumerate(cands)
            if j0 == node or j1 == node
        ]
        clauses.append(tuple(users))

    # No gate recomputes a constant, an input or an earlier gate, up to
    # complement.
    fixed = [0] + [var_table(n, i).bits for i in range(n)]
    for gate_vals in values:
        for pattern in fixed:
            for target in (pattern, pattern ^ tt.mask):
                clauses.append(
                    tuple(
                        -v if (target >> r) & 1 else v
                        for r, v in enumerate(gate_vals)
                    )
                )
    num_vars = out_var
    for i in range(k):
        for j in range(i + 1, k):
            # differ somewhere, and differ from the complement somewhere
            for want_equal in (False, True):
                marks = range(num_vars + 1, num_vars + rows + 1)
                num_vars += rows
                for d, vi, vj in zip(marks, values[i], values[j]):
                    if want_equal:
                        clauses.append((-d, vi, -vj))
                        clauses.append((-d, -vi, vj))
                    else:
                        clauses.append((-d, vi, vj))
                        clauses.append((-d, -vi, -vj))
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
    for i, (cands, base, gate_vals) in enumerate(zip(candidates, sel_base, values), 1):
        header.append(
            f"c gate {i}: selection vars {base}..{base + len(cands) - 1} "
            f"({len(cands)} candidates), value vars "
            f"{gate_vals[0]}..{gate_vals[-1]}"
        )
    header.append(f"c output polarity var {out_var} (true = complemented)")
    if num_vars > out_var:
        header.append(f"c distinctness aux vars {out_var + 1}..{num_vars}")

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

    candidates, sel_base, out_var = _cnf_layout(n, k)
    chain = []
    for i, (cands, base) in enumerate(zip(candidates, sel_base), 1):
        chosen = [c for t, c in enumerate(cands) if base + t in assignment]
        if len(chosen) != 1:
            raise ValueError(
                f"model inconsistent with layout: gate {i} has "
                f"{len(chosen)} selected candidates"
            )
        chain.append(chosen[0])
    return _chain_to_circuit(n, chain, complement=out_var in assignment)
