"""Probabilistic model checking of PCTL queries on an AbstractMdp.

State formulas: ``true``, quoted atomic propositions, ``&``, ``!``,
parentheses, and the probability operator. Path formulas: next,
unbounded always/eventually, bounded eventually, and (bounded) until.

Concrete grammar::

    state := conj
    conj  := atom ( '&' atom )*
    atom  := 'true' | '"' name '"' | '!' atom | '(' state ')'
           | 'P' cmp number '[' path ']'
    cmp   := '<' | '<=' | '>' | '>='
    path  := 'X' state
           | 'G' state
           | 'F' ('<=' int)? state
           | state 'U' ('<=' int)? state

The parser is built on STL's front end (`stl._Cursor`): a syntax error
gives the character position of the fault. `format_pctl` prints bounds
exactly, so parse_pctl(format_pctl(f)) == f.

Canonical safety queries::

    P>0.8 [ F<=10 "rob=-1" ]
    P>0.5 [ X "rob=-1" ]

The probability operator computes the extremal path probability over
schedulers; the default is MAX (worst case for unsafe-reachability
queries), with MIN available via the ``semantics`` argument. Bounded
operators run up to k sweeps of value iteration, stopping early once a
sweep returns its input bit for bit. Unbounded ones are solved
exactly: Prob0/Prob1 graph precomputation (Baier & Katoen, *Principles
of Model Checking*, 10.6), then policy iteration with one dense linear
solve per policy, from a proper policy that end components cannot trap
(Haddad & Monmege, TCS 2018). An answer's ``error_bound`` is the final
sup-norm Bellman residual for unbounded operators, not a bound on the
distance to the exact value, and 0.0, ignoring rounding, for step-bounded
ones and next. States with no outgoing choice are treated as absorbing:
they contribute probability 0 unless they already satisfy the target.
Unbounded always goes through the dual: Pmax[G phi] = 1 - Pmin[F !phi]
(and with MAX/MIN swapped).
"""

from __future__ import annotations

import numpy as np

from .abstraction import AbstractMdp, StateId, TransitionTable, _new_runs
from .stl import _NUM_OR_NAME, Record, SpecSyntaxError, _Cursor, _fmt_num, _token_pattern

IMPROVE_TOL = 1e-12  # policy iteration switches an action only for a larger gain
_LABELS = {"rob=-1": -1, "rob=+1": 1}  # atomic proposition -> the state label it holds at


# ---------------------------------------------------------------------------
# AST


class TrueF(Record):
    __slots__ = ()


class Ap(Record):
    __slots__ = ("name",)


class NotF(Record):
    __slots__ = ("operand",)


class AndF(Record):
    __slots__ = ("left", "right")


class ProbF(Record):
    __slots__ = ("op", "bound", "path")  # op: '<', '<=', '>', '>='


class Next(Record):
    __slots__ = ("operand",)


class Globally(Record):
    __slots__ = ("operand",)


class Finally(Record):
    __slots__ = ("operand", "k")
    _defaults = {"k": None}  # None = unbounded


class UntilF(Record):
    __slots__ = ("left", "right", "k")
    _defaults = {"k": None}


PctlFormula = TrueF | Ap | NotF | AndF | ProbF
PathFormula = Next | Globally | Finally | UntilF


class PctlSyntaxError(SpecSyntaxError):
    """A PCTL formula that does not parse."""


class _Parser(_Cursor):
    _TOKEN = _token_pattern(r'(?P<str>"[^"]*")|' + _NUM_OR_NAME + r"|(?P<op><=|>=|[!&<>()\[\]])")
    _ERROR = PctlSyntaxError

    def parse_state(self) -> PctlFormula:
        node = self.parse_atom()
        while self.peek()[1] == "&":
            self.next()
            node = AndF(node, self.parse_atom())
        return node

    def parse_atom(self) -> PctlFormula:
        kind, val, at = self.peek()
        if val == "true":
            self.next()
            return TrueF()
        if kind == "str":
            self.next()
            return Ap(val[1:-1])
        if val == "!":
            self.next()
            return NotF(self.parse_atom())
        if val == "(":
            self.next()
            node = self.parse_state()
            self.expect(")")
            return node
        if val == "P":
            self.next()
            kind, op, at = self.peek()
            if op not in ("<", "<=", ">", ">="):
                raise PctlSyntaxError(f"expected a comparison after P, found {op!r}", at)
            self.next()
            kind, num, at = self.peek()
            if kind != "num":
                raise PctlSyntaxError(f"expected a probability bound, found {num!r}", at)
            self.next()
            bound = float(num)
            if not 0.0 <= bound <= 1.0:
                raise PctlSyntaxError(f"probability bound {bound} outside [0, 1]", at)
            self.expect("[")
            path = self.parse_path()
            self.expect("]")
            return ProbF(op, bound, path)
        self.expected("a state formula")

    def parse_bound(self) -> int | None:
        if self.peek()[1] == "<=":
            self.next()
            kind, num, at = self.peek()
            if kind != "num" or "." in num or "e" in num.lower():
                raise PctlSyntaxError(f"expected an integer step bound, found {num!r}", at)
            self.next()
            return int(num)
        return None

    def parse_path(self) -> PathFormula:
        kind, val, at = self.peek()
        if val == "X":
            self.next()
            return Next(self.parse_state())
        if val == "G":
            self.next()
            return Globally(self.parse_state())
        if val == "F":
            self.next()
            k = self.parse_bound()
            return Finally(self.parse_state(), k)
        left = self.parse_state()
        self.expect("U")
        k = self.parse_bound()
        right = self.parse_state()
        return UntilF(left, right, k)


def parse_pctl(text: str) -> PctlFormula:
    parser = _Parser(text)
    return parser.finish(parser.parse_state())


def format_pctl(formula) -> str:
    if isinstance(formula, TrueF):
        return "true"
    if isinstance(formula, Ap):
        return f'"{formula.name}"'
    if isinstance(formula, NotF):
        return f"!({format_pctl(formula.operand)})"
    if isinstance(formula, AndF):
        return f"({format_pctl(formula.left)}) & ({format_pctl(formula.right)})"
    if isinstance(formula, ProbF):
        return f"P{formula.op}{_fmt_num(formula.bound)} [ {format_pctl(formula.path)} ]"
    if isinstance(formula, Next):
        return f"X ({format_pctl(formula.operand)})"
    if isinstance(formula, Globally):
        return f"G ({format_pctl(formula.operand)})"
    if isinstance(formula, Finally):
        bound = f"<={formula.k}" if formula.k is not None else ""
        return f"F{bound} ({format_pctl(formula.operand)})"
    if isinstance(formula, UntilF):
        bound = f"<={formula.k}" if formula.k is not None else ""
        return f"({format_pctl(formula.left)}) U{bound} ({format_pctl(formula.right)})"
    raise TypeError(f"not a PCTL formula: {formula!r}")


# ---------------------------------------------------------------------------
# engine


class Verdict(Record):
    # probability: set when the formula is a top-level P operator; semantics: "MAX" or "MIN";
    # error_bound: final Bellman residual (0.0 if step-bounded), not a distance to the exact value
    __slots__ = ("holds", "probability", "semantics", "error_bound")


class ReachResult(Record):
    __slots__ = ("probs", "error_bound")  # probs: {StateId: float}


def _choice_values(t: TransitionTable, x: np.ndarray) -> np.ndarray:
    """One-step expectation of x under each choice, summed in row order (sorted rows fix its bits)."""
    return np.bincount(t.choice, weights=t.prob * x[t.dst], minlength=len(t.choice_src))


def _sweep(t: TransitionTable, x: np.ndarray, semantics: str) -> np.ndarray:
    """One Bellman sweep: optimal one-step expectation per state; states
    with no choice keep probability 0 (absorbing convention)."""
    out = np.zeros(len(t.order))
    if len(t.choice_src):
        extreme = np.maximum if semantics == "MAX" else np.minimum
        out[t.choice_src[t.first_choice]] = extreme.reduceat(_choice_values(t, x), t.first_choice)
    return out


def _until_probs(model: AbstractMdp, hold: np.ndarray, target: np.ndarray,
                 k: int | None, semantics: str) -> tuple[np.ndarray, float]:
    """Extremal probability of (hold U target), optionally step-bounded,
    and its error bound: 0 when bounded, else the sup-norm Bellman
    residual of the returned vector."""
    t = model.table
    x = np.where(target, 1.0, 0.0)
    frozen = target | ~hold  # value fixed: 1 in target, 0 where hold fails
    if k is not None:
        for _ in range(k):
            x_new = _sweep(t, x, semantics)
            x_new[frozen] = x[frozen]
            if np.array_equal(x_new, x):
                break  # an exact fixpoint: every later sweep returns it again
            x = x_new
        return x, 0.0
    x = _exact_until(t, ~frozen & (np.bincount(t.choice_src, minlength=len(t.order)) > 0), target, semantics)
    image = _sweep(t, x, semantics)  # one Bellman step from the answer
    image[frozen] = x[frozen]
    return x, float(np.max(np.abs(image - x), initial=0.0))


def _exact_until(t: TransitionTable, free: np.ndarray, target: np.ndarray, semantics: str) -> np.ndarray:
    """Unbounded (hold U target) by Prob0/Prob1 on the graph, then policy
    iteration on the states left undecided. `free` marks the states whose
    value the schedulers decide: hold, not target, with a choice."""
    n, live = len(t.order), t.prob > 0.0
    free_choice = free[t.choice_src]

    def hits(mask):  # per choice: some successor lies in mask
        return np.bincount(t.choice, weights=mask[t.dst] & live, minlength=len(t.choice_src)) > 0

    def some_choice(choice_mask):  # per state: some choice of it is marked
        return np.bincount(t.choice_src, weights=choice_mask, minlength=n) > 0

    policy = np.zeros(n, dtype=int)  # each undecided state's choice
    if semantics == "MAX":
        # Prob0E, layer by layer: a newly reached state takes its first choice
        # with a successor in the previous layer. This attractor policy is
        # proper, and strict improvement keeps it so.
        def attract(reach):
            out = np.zeros(n, dtype=bool)
            out[_take_first(t, policy, hits(reach) & free_choice & ~reach[t.choice_src])] = True
            return out

        zero = ~_grow(target, attract)
        # Prob1E: the greatest set from which some scheduler stays inside
        # and reaches the target
        one = ~zero
        while True:
            stay = free_choice & ~hits(~one)
            inner = _grow(target, lambda r: some_choice(stay & hits(r)))
            if not (one & ~inner).any():
                break
            one = inner
    else:
        # Prob0A: Pmin > 0 where every choice has a successor that does.
        # Every policy is then proper: a cycle avoiding the target would
        # have made Pmin 0.
        zero = ~_grow(target, lambda r: free & ~some_choice(~hits(r)))
        # Prob1A: Pmin = 1 where no scheduler can reach a state of Pmin 0
        one = ~_grow(zero, lambda e: free & some_choice(hits(e)))
        _take_first(t, policy, np.ones(len(t.choice_src), dtype=bool))
    x = np.where(one, 1.0, 0.0)
    undecided = np.flatnonzero(~zero & ~one)
    if undecided.size:
        _policy_iteration(t, x, undecided, policy, 1.0 if semantics == "MAX" else -1.0)
    return x


def _grow(mask: np.ndarray, step) -> np.ndarray:
    """Least fixpoint above `mask` of adding `step(mask)`."""
    mask = mask.copy()
    while True:
        new = step(mask) & ~mask
        if not new.any():
            return mask
        mask |= new


def _take_first(t: TransitionTable, policy: np.ndarray, choice_mask: np.ndarray) -> np.ndarray:
    """Point each state that has a marked choice at its first one, and
    return those states (choices are sorted by state)."""
    g = np.flatnonzero(choice_mask)
    src = t.choice_src[g]
    first = _new_runs(src)
    policy[src[first]] = g[first]
    return src


def _policy_iteration(t: TransitionTable, x: np.ndarray, u: np.ndarray, policy: np.ndarray,
                      sign: float) -> None:
    """Solve the undecided states `u` in place in `x`, starting from a
    proper `policy`; sign +1 maximizes, -1 minimizes. A state switches
    only to a choice better than its current one by more than IMPROVE_TOL,
    and to the first best one."""
    row_of = np.full(len(t.order), -1)
    row_of[u] = np.arange(len(u))
    own = row_of[t.choice_src] >= 0
    while True:
        chosen = np.zeros(len(t.choice_src), dtype=bool)
        chosen[policy[u]] = True
        used = chosen[t.choice]
        rows, dst, p = row_of[t.src[used]], t.dst[used], t.prob[used]
        cols = row_of[dst]
        inside = cols >= 0
        a = np.eye(len(u))
        a[rows[inside], cols[inside]] -= p[inside]  # one choice per row: no repeated entries
        b = np.bincount(rows[~inside], weights=p[~inside] * x[dst[~inside]], minlength=len(u))
        x[u] = np.linalg.solve(a, b)
        q = _choice_values(t, x)
        gain = sign * (q - q[policy[t.choice_src]])
        better = own & (gain > IMPROVE_TOL)
        if not better.any():
            return
        best = np.zeros(len(t.order))
        np.maximum.at(best, t.choice_src[better], gain[better])
        _take_first(t, policy, better & (gain == best[t.choice_src]))


def _sat_mask(model: AbstractMdp, formula: PctlFormula, semantics: str) -> np.ndarray:
    if isinstance(formula, TrueF):
        return np.ones(len(model.label), dtype=bool)
    if isinstance(formula, Ap):
        if formula.name not in _LABELS:
            raise ValueError(f"unknown atomic proposition {formula.name!r}; model has {tuple(_LABELS)}")
        return model.label == _LABELS[formula.name]
    if isinstance(formula, NotF):
        return ~_sat_mask(model, formula.operand, semantics)
    if isinstance(formula, AndF):
        return _sat_mask(model, formula.left, semantics) & _sat_mask(model, formula.right, semantics)
    if isinstance(formula, ProbF):
        return _prob_sat(model, formula, semantics)[1]
    raise TypeError(f"not a PCTL state formula: {formula!r}")


_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _prob_sat(model: AbstractMdp, formula: ProbF,
              semantics: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-state path probabilities of a probability operator, where
    they meet its bound, and their error bound."""
    probs, error_bound = _path_probs(model, formula.path, semantics)
    return probs, _COMPARE[formula.op](probs, formula.bound), error_bound


def _path_probs(model: AbstractMdp, path: PathFormula, semantics: str) -> tuple[np.ndarray, float]:
    if isinstance(path, Next):
        sat = _sat_mask(model, path.operand, semantics)
        return _sweep(model.table, np.where(sat, 1.0, 0.0), semantics), 0.0
    if isinstance(path, Finally):
        target = _sat_mask(model, path.operand, semantics)
        return _until_probs(model, np.ones(len(target), dtype=bool), target, path.k, semantics)
    if isinstance(path, UntilF):
        hold = _sat_mask(model, path.left, semantics)
        target = _sat_mask(model, path.right, semantics)
        return _until_probs(model, hold, target, path.k, semantics)
    if isinstance(path, Globally):
        # Pmax[G phi] = 1 - Pmin[F !phi] and dually for MIN.
        dual = "MIN" if semantics == "MAX" else "MAX"
        inner, error_bound = _path_probs(model, Finally(NotF(path.operand)), dual)
        return 1.0 - inner, error_bound
    raise TypeError(f"not a PCTL path formula: {path!r}")


def reach_prob(model: AbstractMdp, target: set[StateId], k: int | None = None,
               semantics: str = "MAX") -> ReachResult:
    """Extremal probability, per state, of reaching the target set
    (within k steps when bounded)."""
    order = model.table.order
    unknown = [sid for sid in target if sid not in model.rank]
    if unknown:
        raise ValueError(f"target states not in the model: {sorted(unknown)}")
    mask = np.array([sid in target for sid in order], dtype=bool)
    probs, error_bound = _until_probs(model, np.ones(len(order), dtype=bool), mask, k, semantics)
    return ReachResult(
        probs={sid: float(p) for sid, p in zip(order, probs)},
        error_bound=error_bound,
    )


def check(model: AbstractMdp, state: StateId, formula: PctlFormula,
          semantics: str = "MAX") -> Verdict:
    """Evaluate a PCTL state formula at one state of the model."""
    r = model.rank.get(state)
    if r is None:
        raise ValueError(f"state {state!r} is not in the model")
    sat, probs, error_bound = _answers(model, formula, semantics)
    return Verdict(holds=sat[r], probability=probs[r], semantics=semantics, error_bound=error_bound)


def check_all(model: AbstractMdp, formula: PctlFormula, semantics: str = "MAX") -> dict[StateId, Verdict]:
    """Verdicts for every state in one pass (memoized on the model)."""
    key = ("verdicts", formula, semantics)
    verdicts = model.caches.get(key)
    if verdicts is None:
        sat, probs, error_bound = _answers(model, formula, semantics)
        verdicts = model.caches[key] = {
            sid: Verdict(holds=holds, probability=p, semantics=semantics, error_bound=error_bound)
            for sid, holds, p in zip(model.table.order, sat, probs)}
    return verdicts


def _answers(model: AbstractMdp, formula: PctlFormula, semantics: str) -> tuple[list, list, float | None]:
    """Whether the formula holds and its probability (None without a top-level
    P), per state in `model.table.order`, and the error bound; memoized on the model."""
    if semantics not in ("MAX", "MIN"):
        raise ValueError(f"semantics must be MAX or MIN, got {semantics!r}")
    key = ("answers", formula, semantics)
    answers = model.caches.get(key)
    if answers is None:
        if isinstance(formula, ProbF):
            probs, sat, error_bound = _prob_sat(model, formula, semantics)
            probs = probs.tolist()
        else:
            sat = _sat_mask(model, formula, semantics)
            probs, error_bound = [None] * len(sat), None
        answers = model.caches[key] = (sat.tolist(), probs, error_bound)
    return answers
