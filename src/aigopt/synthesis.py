"""Exact minimum AIG sizes by exhaustive enumeration.

Two routes live here:

* ``_walk`` — one walk over a canonical, symmetry-broken circuit space, the
  one engine that answers size queries.  It has two leaves (see "One walk,
  two leaves" below): ``exists_circuit`` / ``opt_size``, an
  iterative-deepening search for any function in the target's NPN orbit,
  and ``sweep``, which walks each gate count once for every class of n and
  serves the ``oracle`` and ``campaign`` commands.  ``SynthesisConfig``
  sets only the per-class search's gate cap and per-query time budget.
* ``brute_oracle`` — an independent breadth-first sweep over reachable
  function sets for n <= 3, covering every function at once.  It returns
  sizes only, shares no search code with the orbit search and is the
  reference the tests check that route against.

``aigopt.cnf`` exports the same per-(function, k) question as DIMACS for an
external SAT solver, with this module's candidate order.

The target is the orbit.  Input negation, input permutation and output
negation never change a circuit's gate count, so a k-gate circuit for any
member of the target's NPN orbit (``npn.orbit(tt).members``) answers the
query: the search accepts a last gate whose value lies in the orbit, then
``npn.retarget`` maps the witness back to the target.  At k = 0 the constant
0 or the input x0 is the witness when it lies in the orbit.

Enumeration canonical form: gates occupy nodes n+1..n+k in creation order,
fanin pairs are sorted, the last gate is the output root, and a gate that
does not use its immediate predecessor must carry a fanin signature
lexicographically >= the predecessor's.  Every circuit has at least one
topological order satisfying these constraints (place the smallest-signature
ready gate first), so exhausting the canonical space is exhaustive up to
isomorphism.  A gate's choices depend only on n, its largest fanin node m,
the group of symmetries it is cut by (see below) and the previous gate's
signature, so ``_gate_choices`` caches them per (n, m, group, signature),
each list built on first use.  ``_live_pairs`` holds the pairs they are
merged from, once per (n, m, group).

Because any orbit member is a hit, an input transform may be applied to a
witness before it is put in that order, and one symmetry cut follows for
every gate.  This is canonical augmentation along a stabilizer chain (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998).

* Gate 1 is x0 AND x1.  The first gate placed reads two inputs; an input
  transform turns it into x0 AND x1, which has the smallest signature of all
  pairs, so the greedy order places it first.  (Any pair over inputs is
  minimal in its orbit under the full input group only if it is x0 AND x1;
  building that group at n = 6 would take 46,080 maps, so the rule is
  written out.)
* Gate j + 1 is minimal in its orbit under S_j.  S_1 = H, the
  2 * (n-2)! * 2^(n-2) input transforms that fix x0 AND x1 (swap x0 and x1
  or not, permute and negate the other inputs); S_j is the subgroup of
  S_(j-1) that also maps gate j's fanin pair to itself.  Such a transform
  leaves the values of gates 1..j unchanged, so it acts on the pairs a later
  gate may take.  Gate j + 1 takes only the pairs whose signature is the
  smallest in their S_j-orbit, and carries the part of S_j that fixes it as
  S_(j+1).  Once S_j is trivial the cut stops.  At n = 4 gate 2 keeps 8 of
  the 40 pairs, with stabilizers of size 2, 2, 4, 4, 4, 8, 8 and 16.

Why no minimum witness is lost, by induction on j.  Take a witness in greedy
order with gate 1 = x0 AND x1.  Choose h_1 in S_1 that makes the smallest
ready signature after gate 1 as small as possible, then h_2 in S_2 that does
the same after gate 2, and so on, applying each in turn.  Every s in S_j
fixes gates 1..j and maps the gates ready after gate i <= j onto the gates
ready after gate i in the image.  Each gate i <= j was chosen minimal over
S_(i-1), a group containing S_j and every later h, so it is still the
smallest ready signature in the image: applying h_j keeps gates 1..j the
greedy picks.  Gate j + 1 of the final circuit was then made the smallest
ready signature over all of S_j, so no s in S_j gives it a smaller
signature, which is the cut.  The last gate, the only one left, is cut the
same way.  The transformed circuit computes another member of the orbit,
so it is a witness in the canonical space that passes every cut.

The pairs over the inputs and gate 1 have fixed values, since gate 1 is
always x0 AND x1.  Seven of them recompute a constant, an input or gate 1
(x0 AND x1 again; x0 AND g1, NOT x0 AND g1 and NOT x0 AND NOT g1, and the
same with x1) and would die at the duplicate test; ``_dead_sigs`` leaves
them out of every list.

The search always applies four reductions.  Each keeps some minimum-size
witness, because a circuit that breaks one of them can be made smaller or
computes another function:

* no constant fanin — ``c AND x`` is the constant 0 or ``x`` itself, so the
  gate can be replaced by that node;
* no complement pair — a gate never reads one node twice; ``x AND NOT x`` is
  the constant 0 and ``x AND x`` is ``x``;
* every gate and every essential input read — a gate that no later gate
  reads (and that is not the output root) can be deleted, and a circuit
  that never reads an input its function depends on computes another
  function.  The unread gates and inputs are kept as a pending set, and a
  slot count prunes it: with r gates left there are 2r fanin slots, the
  r - 1 gates left that are not the output each take one, and every pending
  node takes one, so at most r + 1 nodes may be pending.  Inputs join the
  set only when the target depends on all n of them.  The support size D
  is the same for every orbit member, but which D inputs a member reads is
  not, so when D < n no single input is known to be needed.  The same count
  at gate 1 gives the classic floor: k gates have 2k slots, and k - 1 of
  them read gates, so at most k + 1 inputs are read and a function of D
  inputs needs at least D - 1 gates (Knuth, TAOCP 4A, 7.1.2).  A query
  below that floor is proven infeasible before any node is visited;
* no duplicate function — a gate that recomputes, up to complement, the
  function of a constant, an input or an earlier gate can be replaced by a
  (complemented) edge to that node.

The last gate is decided without walking its list, inside the loop of the
second-to-last gate, with the one ``_gate_choices`` lookup every gate makes,
from the second-to-last gate's signature and stabilizer.  It must compute a
hit, and no earlier node may already compute one up to complement (that node
would be a smaller witness).  It must also read every pending node.
Beyond k = 1 the gate just placed is always pending, and the slot count
leaves at most one other pending node, a gate or an input, so only the pairs
that read the newest gate (and that other node, if any) can close the
circuit; ``closers`` lists them as ``(pos, neg, pairs)``, the other fanins'
literal codes of those that read the newest gate plain and complemented, and
the closers in order.  With the newest gate's value v, a decision tests each
``pos`` literal AND v, then each ``neg`` literal AND NOT v, against the accept
set; only a hit scans the ordered closers for the first, the witness a walk
of the list returns.  ``nodes_visited`` still counts what that walk would:
every pair up to the first that closes, or the whole list when none does.
The node counts therefore stay regression gates.

One walk, two leaves.  ``_walk`` takes an accept set closed under NPN, the
initial pending inputs and an ``on_hit(circuit, w)`` callback, which runs
only on a hit, never per closing pair, and stops the walk by returning true.

* The per-class leaf, ``exists_circuit``, accepts ``orbit(tt).members`` and
  stops at the first hit.
* The sweep leaf, ``sweep``, takes the tables its caller must settle and
  accepts every function whose class is not yet settled.  A hit removes its
  class's orbit from the set and moves the class's first witness onto each
  target of the class with one ``npn.retarget``; the level stops at the hit
  that settles the last target.  That first hit is the one the class's own
  walk would find, so the witnesses are the same.

The walk's two prunings for the per-class target at the second-to-last
gate, that no earlier node and not the gate just placed computes a hit,
never fire in a sweep whose levels run in order: a node of a (k - 1)-gate
prefix computes a function of size <= k - 1, which a lower level has already
settled and removed from the set.  A sweep has no single support size, so
its inputs join the pending set only once every class of support < n is
settled; until then a circuit for an open class need not read every input.

Because the reductions forbid redundant gates, ``exists_circuit(tt, k)`` may
report k infeasible for k above the optimum (a constant has no witness at
any k >= 1); only the upward iteration of ``opt_size`` yields sizes.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import itemgetter

from .aig import AigCircuit, AndGate, Literal
from .npn import NpnClassTable, orbit, retarget
from .truthtable import TruthTable, var_table


class Status(Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"


# The cap keeps node indices inside ``_pack_sig``'s 10-bit field and sizes
# ``_input_group``'s tables.  ``_gate_choices`` builds a list when the walk
# first reaches it: at n = 6, 32 gates with a 0.2 s budget per gate count peak
# at 34 MB.
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


# A stabilizer is a bitmask over ``_input_group(n)``; bit 0 is the identity,
# so the trivial group is 1.
_TRIVIAL = 1


@lru_cache(maxsize=None)
def _input_group(n: int):
    """H, the input transforms that fix x0 AND x1 (swap x0 and x1 or not,
    permute and negate the other inputs), identity first.  Each maps a
    literal code ``(node << 1) | complement`` to its image, gate nodes to
    themselves."""
    maps = []
    for first in ((1, 2), (2, 1)):
        for rest in itertools.permutations(range(3, n + 1)):
            node = (0, *first, *rest)
            for neg in range(1 << (n - 2)):
                table = list(range(2 * (n + MAX_GATES + 1)))
                for j in range(1, n + 1):
                    flip = (neg >> (j - 3)) & 1 if j >= 3 else 0
                    for c in (0, 1):
                        table[(j << 1) | c] = (node[j] << 1) | (c ^ flip)
                maps.append(tuple(table))
    return maps


def _orbit_cut(n: int, sigs, stab: int) -> list[tuple[int, int]]:
    """The signatures that are the smallest in their orbit under ``stab``, in
    input order, each paired with the subgroup of ``stab`` that fixes it."""
    members = [(i, t) for i, t in enumerate(_input_group(n)) if (stab >> i) & 1]
    kept = []
    for sig in sigs:
        lo, hi = sig >> 10, sig & 1023
        fixed = 0
        for i, t in members:
            a, b = t[lo], t[hi]
            image = (a << 10) | b if a < b else (b << 10) | a
            if image < sig:
                break
            if image == sig:
                fixed |= 1 << i
        else:
            kept.append((sig, fixed))
    return kept


@lru_cache(maxsize=None)
def _live_pairs(n: int, m: int, stab: int):
    """``(older, closers)`` for a gate whose largest fanin node is m, placed
    under the stabilizer ``stab``: the live pairs over nodes < m, and the
    live pairs that read m.  For each input or gate node a < m,
    ``closers[1 << a]`` holds the pairs (a, m); ``closers[0]`` holds every
    pair that reads m.  All are signature-sorted, and ``closers`` keys on the
    unread nodes other than m, each value ``(pos, neg, pairs)``: the literal
    codes paired with m plain, then with m complemented, then the pairs.

    Each pair is ``(sig, l0, l1, keep, next_stab)``: ``sig``'s two literal
    codes ``node << 1 | complement``, a mask that clears both nodes from a
    pending bitmask, and the stabilizer the next gate is placed under.  Only
    the pairs minimal in their ``stab``-orbit are kept, and none of
    ``_dead_sigs``.
    """
    dead = _dead_sigs(n)
    sigs = [c[0] for c in _candidate_pairs(m, 0) if c[0] not in dead]
    live = [
        (sig, sig >> 10, sig & 1023, ~(1 << (sig >> 11) | 1 << (sig >> 1 & 511)), fixed)
        for sig, fixed in _orbit_cut(n, sigs, stab)
    ]
    older = [c for c in live if c[2] >> 1 < m]
    fresh = [c for c in live if c[2] >> 1 == m]
    closers = {0: fresh} | {1 << a: [c for c in fresh if c[1] >> 1 == a] for a in range(1, m)}
    return older, {
        key: ([c[1] for c in close if not c[2] & 1], [c[1] for c in close if c[2] & 1], close)
        for key, close in closers.items()
    }


@lru_cache(maxsize=None)
def _gate_choices(n: int, m: int, stab: int, prev_sig: int):
    """``(pairs, closers)`` for a gate whose largest fanin node is m, placed
    under ``stab`` after a gate of signature ``prev_sig``: the pairs that
    read node m merged with the older pairs of signature >= ``prev_sig``,
    signature-sorted, and ``_live_pairs``' closers.  Gate 1 (m = n) is x0 AND
    x1 alone, whatever ``prev_sig`` is.
    """
    if m == n:
        if n < 2:
            return [], {}
        full = (1 << len(_input_group(n))) - 1
        return [(_pack_sig(1, 0, 2, 0), 2, 4, ~0b110, full)], {}
    older, closers = _live_pairs(n, m, stab)
    cut = bisect_left(older, prev_sig, key=itemgetter(0))
    return sorted(closers[0][2] + older[cut:]), closers


@lru_cache(maxsize=None)
def _dead_sigs(n: int) -> frozenset[int]:
    """The pairs over x0..x(n-1) and gate 1 whose value, fixed because gate 1
    is always x0 AND x1, is a constant, an input or gate 1 up to complement:
    x0 AND x1 itself, and for i in {0, 1} xi AND g1 (= g1), NOT xi AND g1
    (= 0) and NOT xi AND NOT g1 (= NOT xi)."""
    mask = (1 << (1 << n)) - 1
    values = [0] + [var_table(n, i).bits for i in range(n)]
    values.append(values[1] & values[2])
    seen = {min(v, v ^ mask) for v in values}
    dead = set()
    for sig, j0, x0, j1, x1 in _candidate_pairs(n + 1, mask):
        v = (values[j0] ^ x0) & (values[j1] ^ x1)
        if min(v, v ^ mask) in seen:
            dead.add(sig)
    return frozenset(dead)


def _support(tt: TruthTable) -> int:
    """How many inputs ``tt`` depends on, the same for every member of its
    orbit: x_i is essential when the rows with x_i = 1 differ from those with
    x_i = 0."""
    count = 0
    for i in range(tt.n):
        v = var_table(tt.n, i).bits
        count += (tt.bits & v) >> (1 << i) != tt.bits & ~v
    return count


def _walk(
    n: int, k: int, accept, pending: int, on_hit, deadline: float | None
) -> tuple[int, bool]:
    """Walk the canonical space of k-gate circuits over n inputs in order.
    Each circuit whose output w lies in ``accept`` is a hit, passed to
    ``on_hit(circuit, w)``; the walk stops when that returns true.  ``accept``
    must be closed under complement and may shrink during the walk.
    ``pending`` is the bitmask of inputs some gate must read.  Returns the
    nodes visited and whether ``deadline`` stopped the walk."""
    mask = (1 << (1 << n)) - 1
    # The value of each literal code, node << 1 | complement; ``seen`` holds
    # every node's value in both polarities.
    lits = [0, mask] * (n + 1 + k)
    for i in range(1, n + 1):
        v = lits[i << 1] = var_table(n, i - 1).bits
        lits[i << 1 | 1] = v ^ mask
    seen = set(lits[: 2 * n + 2])

    chain: list[tuple[int, int, int, int, int]] = []
    nodes_visited = 0

    def search(node: int, prev_sig: int, pending: int, stab: int) -> bool:
        """Place the gate at ``node`` under ``stab``; ``pending`` is a bitmask
        of the unread nodes that some later gate must read.  True stops the
        walk."""
        nonlocal nodes_visited
        if deadline is not None and time.monotonic() > deadline:
            raise _BudgetExceeded

        pairs, _ = _gate_choices(n, node - 1, stab, prev_sig)

        if node == n + k - 1:
            # The last gate is decided here, in closed form: it is counted as
            # a walk of its whole list that stops at the first pair closing
            # the circuit.  No node may already compute a hit.  No deadline
            # is read in this loop, so it counts in a local.
            hit_before = not seen.isdisjoint(accept)
            closed = 0  # the last gate's pairs counted so far
            for cand in pairs:
                sig, l0, l1, keep, nxt = cand
                v = lits[l0] & lits[l1]
                if v in seen:
                    continue
                # The gate just placed is unread; the slot bound leaves at
                # most one other unread node, and the last gate reads both.
                other = pending & keep
                if other & (other - 1):
                    continue
                last_pairs, closers = _gate_choices(n, node, nxt, sig)
                closed += len(last_pairs)
                if hit_before or v in accept:
                    continue
                pos, neg, ordered = closers[other]
                for a in pos:
                    if lits[a] & v in accept:
                        break
                else:
                    nv = v ^ mask
                    for a in neg:
                        if lits[a] & nv in accept:
                            break
                    else:
                        continue
                lits[node << 1] = v
                lits[node << 1 | 1] = v ^ mask
                for close in ordered:
                    w = lits[close[1]] & lits[close[2]]
                    if w in accept and on_hit(
                        _chain_to_circuit(n, chain + [cand, close], complement=False), w
                    ):
                        # Count as a walk would, through cand, then close.
                        nodes_visited += pairs.index(cand) + 1 + closed
                        nodes_visited += last_pairs.index(close) + 1 - len(last_pairs)
                        return True
            nodes_visited += len(pairs) + closed
            return False

        # Each gate but the output is read by a later gate, and so is every
        # pending node: with r gates left, at most r + 1 may be pending.
        limit = n + k - node + 1
        pending |= 1 << node
        for cand in pairs:
            nodes_visited += 1
            sig, l0, l1, keep, nxt = cand
            v = lits[l0] & lits[l1]
            if v in seen:
                continue
            new_pending = pending & keep
            if new_pending.bit_count() > limit:
                continue

            nv = v ^ mask
            lits[node << 1] = v
            lits[node << 1 | 1] = nv
            seen.add(v)
            seen.add(nv)
            chain.append(cand)

            stop = search(node + 1, sig, new_pending, nxt)

            chain.pop()
            seen.discard(v)
            seen.discard(nv)

            if stop:
                return True
        return False

    try:
        if k == 0:
            # A constant or a literal: an accept set closed under NPN holds
            # x0 whenever it holds any literal, so nodes 0 and 1 are every
            # zero-gate circuit there is to test.
            for j in (0, 1):
                if lits[j << 1] in accept and on_hit(
                    AigCircuit(n, (), Literal.decode(j << 1)), lits[j << 1]
                ):
                    break
        elif k == 1:
            # The one 1-gate circuit in the canonical space is x0 AND x1.
            for cand in _gate_choices(n, n, _TRIVIAL, -1)[0]:
                nodes_visited += 1
                v = lits[2] & lits[4]
                if v in accept and seen.isdisjoint(accept):
                    on_hit(_chain_to_circuit(n, [cand], complement=False), v)
        else:
            search(n + 1, -1, pending, _TRIVIAL)
    except _BudgetExceeded:
        return nodes_visited, True
    finally:
        # ``search`` reaches itself through its closure.  Breaking that cycle
        # frees the walk's state and the accept set on return, not at the
        # next full garbage collection.
        del search
    return nodes_visited, False


def exists_circuit(
    tt: TruthTable, k: int, cfg: SynthesisConfig = DEFAULT_CONFIG
) -> ExistsOutcome:
    """Search for a k-gate AIG computing ``tt``.

    The canonical space is searched for a circuit computing any member of
    ``tt``'s NPN orbit; the first witness found is mapped back to ``tt``
    before it is returned.
    """
    if not 0 <= k <= MAX_GATES:
        raise ValueError(f"gate count must be in 0..{MAX_GATES}, got {k}")
    # The orbit is built before the clock starts: the budget bounds the
    # search, not this fixed set-up (~15 ms at n = 6) that every k shares.
    # It is closed under complement, so its member set also holds every
    # pattern normalized up to complement.
    targets = orbit(tt).members
    # So are the first two gates' lists, which every query of k >= 2 reaches:
    # built inside the clock, they made a first n = 6, k = 2 query take
    # ~5 ms, against ~0.1 ms warm.
    if k >= 1:
        gate1 = _gate_choices(tt.n, tt.n, _TRIVIAL, -1)[0]
        if k >= 2 and gate1:
            sig, _, _, _, stab = gate1[0]
            _gate_choices(tt.n, tt.n + 1, stab, sig)
    start = time.monotonic()
    deadline = None if cfg.time_budget is None else start + cfg.time_budget
    support = _support(tt)
    found = []

    def on_hit(circuit: AigCircuit, w: int) -> bool:
        found.append(retarget(circuit, w, tt))
        return True

    if support > k + 1:
        # k gates read at most k + 1 distinct inputs.
        nodes_visited, stopped = 0, False
    else:
        # Inputs are pending only when every orbit member reads all n.
        pending = (1 << (tt.n + 1)) - 2 if support == tt.n else 0
        nodes_visited, stopped = _walk(tt.n, k, targets, pending, on_hit, deadline)
    elapsed = time.monotonic() - start
    if stopped:
        return ExistsOutcome(None, False, nodes_visited, elapsed)
    witness = found[0] if found else None
    return ExistsOutcome(witness, witness is None, nodes_visited, elapsed)


def _chain_to_circuit(n: int, chain, complement: bool) -> AigCircuit:
    # A gate is read from its signature alone, two literal codes in sorted
    # order, so ``_candidate_pairs``' tuples serve as well as the walk's.
    decode = Literal.decode
    gates = tuple(AndGate(decode(c[0] >> 10), decode(c[0] & 1023)) for c in chain)
    return AigCircuit(n, gates, decode((n + len(gates)) << 1 | complement))


def opt_size(tt: TruthTable, cfg: SynthesisConfig = DEFAULT_CONFIG) -> OptResult:
    """Minimum gate count by iterative deepening.

    ``exhausted_below`` ends the unbroken run of gate counts 0, 1, ... proven
    infeasible: a proof above a budget stop, or above the optimum, is no
    floor.  Status is Exact only when that run reaches the witness's k - 1;
    any budget interruption on the way up downgrades the result to an upper
    bound.
    """
    start = time.monotonic()
    exhausted_below = -1
    for k in range(cfg.max_gates + 1):
        outcome = exists_circuit(tt, k, cfg)
        if outcome.witness is not None:
            return OptResult(
                tt=tt,
                size=k,
                status=Status.EXACT if exhausted_below == k - 1 else Status.UPPER_BOUND,
                witness=outcome.witness,
                exhausted_below=exhausted_below,
                elapsed=time.monotonic() - start,
            )
        if outcome.proven_infeasible and exhausted_below == k - 1:
            exhausted_below = k
    raise SearchInconclusiveError(tt, cfg.max_gates, exhausted_below)


@dataclass(frozen=True, slots=True)
class SweepLevel:
    """One level of ``sweep``: its gate count k, the nodes its walk visited,
    and one result for each target it settled, in the order found."""

    k: int
    nodes_visited: int
    settled: list[OptResult]


def sweep(table: NpnClassTable, targets: Iterable[TruthTable]) -> Iterator[SweepLevel]:
    """Settle ``targets``, tables of ``table``'s n, by walking k = 0, 1, ...
    once each.

    A level accepts every function whose class is still open and closes a
    class's orbit at its first hit, whose witness ``npn.retarget`` moves onto
    each target of that class.  Every target a level settles is Exact with
    ``exhausted_below = k - 1``: the levels below were walked in full.  Its
    ``elapsed`` is 0.0, since one walk settles many targets; a caller times
    the sweep.  A level stops at the hit that settles the last target, and
    the sweep ends there, or at once when there is none.  A caller may stop
    it after any level.
    """
    n = table.n
    class_of = table.function_class
    waiting: dict[int, list[TruthTable]] = {}
    for tt in targets:
        waiting.setdefault(class_of[tt.bits], []).append(tt)
    open_functions = set(range(len(class_of)))
    narrow = {c.class_index for c in table if _support(c.canon) < n}
    for k in range(MAX_GATES + 1):
        if not waiting:
            return
        settled: list[OptResult] = []

        def on_hit(circuit: AigCircuit, w: int) -> bool:
            index = class_of[w]
            open_functions.difference_update(orbit(table[index].canon).members)
            narrow.discard(index)
            for tt in waiting.pop(index, ()):
                witness = retarget(circuit, w, tt)
                settled.append(OptResult(tt, k, Status.EXACT, witness, k - 1, 0.0))
            return not waiting

        # A class of fewer than n inputs need not read them all.
        pending = 0 if narrow else (1 << (n + 1)) - 2
        nodes_visited, _ = _walk(n, k, open_functions, pending, on_hit, None)
        yield SweepLevel(k, nodes_visited, settled)


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
