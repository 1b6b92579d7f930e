"""DIMACS export and model import, so an external SAT solver can answer the
search's per-(function, k) question.

``encode_cnf`` streams the query a line at a time: a first pass of the clause
generator counts the clauses for the ``p cnf`` line and a second writes them,
so memory stays flat in k.  One numbering function, ``_cnf_layout``, is shared
by the encoder and ``decode_model``; both take the search's candidate order
(``_candidate_pairs``), and the decoder builds its circuit with the search's
``_chain_to_circuit``.  No solver is embedded.

The encoding carries the search's first four reductions (no constant fanin, no
complement pair, every gate used, no duplicate function) and neither symmetry
cut, which never changes satisfiability.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .aig import AigCircuit
from .synthesis import _candidate_pairs, _chain_to_circuit
from .truthtable import TruthTable, var_table


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


def encode_cnf(tt: TruthTable, k: int) -> Iterator[str]:
    """DIMACS CNF lines, each ending in a newline, satisfiable iff a k-gate
    AIG in the pruned canonical space computes ``tt``.

    The variable layout is documented in the comment header and is reproduced
    by ``decode_model``.  Raises ValueError at the call, not at the first
    line, for k < 1.
    """
    return _dimacs_lines(tt, *_cnf_layout(tt.n, k))


def _dimacs_lines(tt: TruthTable, candidates, sel_base, out_var) -> Iterator[str]:
    n, rows, k = tt.n, tt.rows, len(candidates)
    # values[i - 1][r] is gate i's value variable on row r.
    values = [range(v, v + rows) for v in range(out_var - k * rows, out_var, rows)]
    # Each pair of gates takes two distinctness marks per row.
    num_vars = out_var + k * (k - 1) * rows
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
    yield from (line + "\n" for line in header)

    # The clauses are generated twice, to count them and to write them, so
    # that no more than one is held at a time.
    query = (tt, candidates, sel_base, values, out_var)
    yield f"p cnf {num_vars} {sum(1 for _ in _clauses(*query))}\n"
    for clause in _clauses(*query):
        yield " ".join(map(str, clause)) + " 0\n"


def _clauses(tt: TruthTable, candidates, sel_base, values, out_var) -> Iterator[tuple[int, ...]]:
    n, rows, k = tt.n, tt.rows, len(candidates)
    for cands, base, gate_vals in zip(candidates, sel_base, values):
        # Each gate selects exactly one candidate.
        sel = range(base, base + len(cands))
        yield tuple(sel)
        yield from itertools.combinations([-s for s in sel], 2)
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
                    yield (-s, -v)
                    continue
                yield (-s, *(-lit for lit in lits), v)
                yield from ((-s, lit, -v) for lit in lits)

    # Output: value of gate k, complemented when the polarity var is true.
    for r, v in enumerate(values[-1]):
        if (tt.bits >> r) & 1:
            yield (v, out_var)
            yield (-v, -out_var)
        else:
            yield (-v, out_var)
            yield (v, -out_var)

    # Every gate but the root is read by some later gate.
    for g in range(1, k):
        node = n + g
        yield tuple(
            base + t
            for cands, base in zip(candidates[g:], sel_base[g:])
            for t, (_, j0, _x0, j1, _x1) in enumerate(cands)
            if j0 == node or j1 == node
        )

    # No gate recomputes a constant, an input or an earlier gate, up to
    # complement.
    fixed = [0] + [var_table(n, i).bits for i in range(n)]
    for gate_vals in values:
        for pattern in fixed:
            for target in (pattern, pattern ^ tt.mask):
                yield tuple(
                    -v if (target >> r) & 1 else v for r, v in enumerate(gate_vals)
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
                        yield (-d, vi, -vj)
                        yield (-d, -vi, vj)
                    else:
                        yield (-d, vi, vj)
                        yield (-d, -vi, -vj)
                yield tuple(marks)


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
