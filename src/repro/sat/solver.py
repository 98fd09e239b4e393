"""A CDCL SAT solver in pure Python.

This is the substrate behind the exact lattice-synthesis flow
(:mod:`repro.synthesis.lattice_optimal`): the environment has no external
SAT solver, so the package carries its own.  The design follows MiniSat:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style variable activities with exponential decay,
* phase saving and Luby-sequence restarts.

Literal codes
-------------
Callers speak DIMACS integers (``v`` / ``-v``); inside, a literal is the
code ``2v`` for ``v`` and ``2v + 1`` for ``-v``, so negation is ``code ^ 1``
and the variable is ``code >> 1``.  Codes are translated only at the
boundary: :meth:`Solver.add_clause`, the assumptions of
:meth:`Solver.solve` and :meth:`Solver.model`.

All search state lives in flat lists rather than dicts:

* ``values[code]`` is 1 (true), -1 (false) or 0 (unassigned), kept for
  both polarities, so testing a literal is one list index;
* ``level``, ``reason``, ``activity``, the saved ``polarity`` and the
  conflict-analysis ``seen`` marks are indexed by variable;
* ``watches[code]`` lists the clauses of three or more literals watching
  ``code`` as flat ``[clause, blocker, clause, blocker, ...]`` pairs.  The
  blocker is another literal of the clause; when it is already true the
  clause is satisfied and propagation skips it without touching it;
* a binary clause's blocker is its other literal, which is also the
  literal it implies, so ``bin_watches[code]`` holds ``(other, clause)``
  pairs that propagation reads without opening the clause.  Binary
  watches never move.  Most clauses of the lattice encodings are binary.

A reason or conflict is the clause list itself, not an index.

Incremental use
---------------
Clauses and assumptions may follow any answer.  Every public call starts
and ends at decision level 0: a True answer copies the model into a
snapshot (read back by :meth:`Solver.model`) and then backtracks, so a
later :meth:`Solver.add_clause` sees only genuine level-0 facts and a
later :meth:`Solver.solve` starts its search afresh under its own
assumptions.  Learned clauses are consequences of the clauses alone, so
they stay valid across calls.

The solver is complete; performance is adequate for the instance sizes the
paper's experiments need (thousands of variables / tens of thousands of
clauses).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .cnf import Cnf


class SolverError(RuntimeError):
    """Raised on internal inconsistencies (should never happen)."""


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    if i < 1:
        raise ValueError("luby index is 1-based")
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return luby(i - ((1 << (k - 1)) - 1))


def _code(lit: int) -> int:
    """The literal code of a DIMACS literal."""
    if lit == 0:
        raise ValueError("0 is not a valid literal")
    return 2 * lit if lit > 0 else -2 * lit + 1


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        # Index 0 / codes 0 and 1 are padding: variables start at 1.
        self.watches: list[list] = [[], []]  # [clause, blocker, ...]
        self.bin_watches: list[list[tuple[int, list[int]]]] = [[], []]
        self.values: list[int] = [0, 0]
        self.level: list[int] = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity: list[float] = [0.0]
        self.polarity: list[int] = [1]
        self.seen: list[bool] = [False]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.order_heap: list[tuple[float, int]] = []
        # heap_key[v]: key of v's newest heap entry, None once popped.
        self.heap_key: list[float | None] = [None]
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._model: list[bool] = []

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def _register_var(self, var: int) -> None:
        if var > self.num_vars:
            grow = var - self.num_vars
            self.watches.extend([] for _ in range(2 * grow))
            self.bin_watches.extend([] for _ in range(2 * grow))
            self.values.extend([0] * (2 * grow))
            self.level.extend([0] * grow)
            self.reason.extend([None] * grow)
            self.activity.extend([0.0] * grow)
            self.polarity.extend([1] * grow)  # first decision: negative
            self.seen.extend([False] * grow)
            self.heap_key.extend([0.0] * grow)
            for v in range(self.num_vars + 1, var + 1):
                heapq.heappush(self.order_heap, (0.0, v))
            self.num_vars = var

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False when the formula became trivially UNSAT."""
        if not self.ok:
            return False
        seen: set[int] = set()
        clause: list[int] = []
        for lit in literals:
            code = _code(lit)
            self._register_var(code >> 1)
            if code ^ 1 in seen:
                return True  # tautology
            if code in seen:
                continue
            seen.add(code)
            clause.append(code)
        # Level-0 simplification: the solver rests at level 0 between calls.
        values = self.values
        simplified: list[int] = []
        for code in clause:
            val = values[code]
            if val == 1:
                return True
            if val == 0:
                simplified.append(code)
        if not simplified:
            self.ok = False
            return False
        if len(simplified) == 1:
            self._assign(simplified[0], None)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        self._attach(simplified)
        return True

    def add_cnf(self, cnf: Cnf) -> bool:
        self._register_var(cnf.num_vars)
        for clause in cnf:
            if not self.add_clause(clause):
                return False
        return True

    def _attach(self, clause: list[int]) -> list[int]:
        """Store a clause of two or more literals and watch its first two."""
        self.clauses.append(clause)
        first, second = clause[0], clause[1]
        if len(clause) == 2:
            self.bin_watches[first].append((second, clause))
            self.bin_watches[second].append((first, clause))
        else:
            self.watches[first] += (clause, second)
            self.watches[second] += (clause, first)
        return clause

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _assign(self, code: int, reason: list[int] | None) -> None:
        """Make an unassigned literal true at the current level."""
        self.values[code] = 1
        self.values[code ^ 1] = -1
        var = code >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(code)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        values = self.values
        watches = self.watches
        bin_watches = self.bin_watches
        level = self.level
        reason = self.reason
        trail = self.trail
        current = len(self.trail_lim)
        start = qhead = self.qhead
        conflict = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            for other, clause in bin_watches[false_lit]:
                val = values[other]
                if val == 1:
                    continue
                if val == -1:
                    conflict = clause
                    break
                values[other] = 1
                values[other ^ 1] = -1
                var = other >> 1
                level[var] = current
                reason[var] = clause
                trail.append(other)
            if conflict is not None:
                break
            ws = watches[false_lit]
            end = len(ws)
            i = j = 0
            while i < end:
                blocker = ws[i + 1]
                if values[blocker] == 1:
                    ws[j] = ws[i]
                    ws[j + 1] = blocker
                    i += 2
                    j += 2
                    continue
                clause = ws[i]
                i += 2
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if first != blocker and values[first] == 1:
                    ws[j] = clause
                    ws[j + 1] = first
                    j += 2
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other] != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other] += (clause, first)
                        break
                else:
                    ws[j] = clause
                    ws[j + 1] = first
                    j += 2
                    if values[first] == -1:
                        conflict = clause
                        break
                    values[first] = 1
                    values[first ^ 1] = -1
                    var = first >> 1
                    level[var] = current
                    reason[var] = clause
                    trail.append(first)
            if conflict is not None:
                del ws[j:i]
                break
            del ws[j:]
        self.propagations += qhead - start
        self.qhead = len(trail) if conflict is not None else qhead
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, clause: list[int]) -> tuple[list[int], int]:
        """Derive the 1UIP learned clause (literal codes) and its backjump level."""
        level = self.level
        reason = self.reason
        seen = self.seen
        activity = self.activity
        order_heap = self.order_heap
        heap_key = self.heap_key
        trail = self.trail
        learnt: list[int] = [0]  # slot 0 receives the asserting literal
        counter = 0
        p = -1
        index = len(trail) - 1
        current = len(self.trail_lim)
        while True:
            for q in clause:
                if q == p:
                    continue
                var = q >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                activity[var] += self.var_inc
                if activity[var] > 1e100:
                    self._rescale_activity()
                key = heap_key[var] = -activity[var]
                heapq.heappush(order_heap, (key, var))
                if level[var] == current:
                    counter += 1
                else:
                    learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            var = p >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = reason[var]
            if clause is None:
                raise SolverError("non-UIP literal without a reason")
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = False
        if len(learnt) == 1:
            return learnt, 0
        # Backjump to the second-highest level in the clause, and put a
        # literal of that level in watch position 1.
        back_level = max(level[q >> 1] for q in learnt[1:])
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] == back_level:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back_level

    def _rescale_activity(self) -> None:
        activity = self.activity
        for v in range(len(activity)):
            activity[v] *= 1e-100
        self.var_inc *= 1e-100
        # Re-key the heap so that old and new entries stay comparable.
        values = self.values
        heap_key = self.heap_key
        for v in range(1, len(activity)):
            heap_key[v] = -activity[v] if values[2 * v] == 0 else None
        self.order_heap[:] = [(heap_key[v], v) for v in range(1, len(activity))
                              if heap_key[v] is not None]
        heapq.heapify(self.order_heap)

    def _backtrack(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        values = self.values
        polarity = self.polarity
        activity = self.activity
        order_heap = self.order_heap
        heap_key = self.heap_key
        boundary = self.trail_lim[target_level]
        for code in reversed(self.trail[boundary:]):
            var = code >> 1
            polarity[var] = code & 1
            values[code] = 0
            values[code ^ 1] = 0
            if heap_key[var] is None:
                key = heap_key[var] = -activity[var]
                heapq.heappush(order_heap, (key, var))
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> int | None:
        # Lazy-deletion heap: an entry whose key is not the variable's
        # newest is stale and skipped.  Every unassigned variable keeps one
        # entry keyed by its current activity, so the first live unassigned
        # entry is the most active unassigned variable (lowest index on ties).
        values = self.values
        order_heap = self.order_heap
        heap_key = self.heap_key
        while order_heap:
            key, var = heapq.heappop(order_heap)
            if key != heap_key[var]:
                continue
            heap_key[var] = None
            if values[2 * var] == 0:
                return var
        for var in range(1, self.num_vars + 1):
            if values[2 * var] == 0:
                return var
        return None

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: int | None = None) -> bool | None:
        """Decide satisfiability.

        Args:
            assumptions: literals assumed true for this call only.
            conflict_budget: optional conflict cap; ``None`` result on budget
                exhaustion.

        Returns:
            True (SAT — model available via :meth:`model`), False (UNSAT),
            or None when the budget ran out.
        """
        self._model = []
        if not self.ok:
            return False
        assumed = [_code(lit) for lit in assumptions]
        for code in assumed:
            self._register_var(code >> 1)
        if self._propagate() is not None:
            self.ok = False
            return False
        values = self.values
        trail_lim = self.trail_lim
        restart_count = 0
        conflicts_until_restart = 100 * luby(1)
        total_conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                total_conflicts += 1
                if not trail_lim:
                    self.ok = False
                    return False
                learnt, back_level = self._analyze(conflict)
                # Backjumping may undo assumption levels; the decision loop
                # re-establishes them and detects contradicted assumptions.
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self._assign(learnt[0], self._attach(learnt))
                self.var_inc *= self.var_decay
                if conflict_budget is not None and total_conflicts >= conflict_budget:
                    self._backtrack(0)
                    return None
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    conflicts_until_restart = 100 * luby(restart_count + 1)
                    self._backtrack(min(len(assumed), len(trail_lim)))
                continue
            # No conflict: extend the assignment.
            depth = len(trail_lim)
            if depth < len(assumed):
                code = assumed[depth]
                val = values[code]
                if val == -1:
                    self._backtrack(0)
                    return False
                trail_lim.append(len(self.trail))
                if val == 0:
                    self._assign(code, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                self._model = [values[2 * v] == 1 for v in range(self.num_vars + 1)]
                self._backtrack(0)
                return True
            self.decisions += 1
            trail_lim.append(len(self.trail))
            self._assign(2 * var | self.polarity[var], None)

    # ------------------------------------------------------------------
    def model(self) -> dict[int, bool]:
        """The satisfying assignment after a True result."""
        snapshot = self._model
        return {var: var < len(snapshot) and snapshot[var]
                for var in range(1, self.num_vars + 1)}

    def statistics(self) -> dict[str, int]:
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "clauses": len(self.clauses),
            "vars": self.num_vars,
        }


def solve_cnf(cnf: Cnf, assumptions: Sequence[int] = ()) -> dict[int, bool] | None:
    """One-shot convenience wrapper: returns a model dict or ``None``."""
    solver = Solver()
    if not solver.add_cnf(cnf):
        return None
    result = solver.solve(assumptions)
    if result is True:
        model = solver.model()
        return model
    return None


def brute_force_cnf(cnf: Cnf) -> dict[int, bool] | None:
    """Exponential reference solver used to validate the CDCL engine."""
    n = cnf.num_vars
    if n > 22:
        raise ValueError("brute force limited to 22 variables")
    for bits in range(1 << n):
        model = {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
        if cnf.evaluate(model):
            return model
    return None
