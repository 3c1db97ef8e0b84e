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
(Haddad & Monmege, TCS 2018). Every answer carries an error bound: the
sup-norm Bellman residual for unbounded operators, 0 for bounded ones
and next. States with no outgoing choice are treated as absorbing:
they contribute probability 0 unless they already satisfy the target.
Unbounded always goes through the dual: Pmax[G phi] = 1 - Pmin[F !phi]
(and with MAX/MIN swapped).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .abstraction import AbstractMdp, StateId, _new_runs
from .stl import _NUM_OR_NAME, SpecSyntaxError, _Cursor, _fmt_num

IMPROVE_TOL = 1e-12  # policy iteration switches an action only for a larger gain


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class Ap:
    name: str


@dataclass(frozen=True)
class NotF:
    operand: "PctlFormula"


@dataclass(frozen=True)
class AndF:
    left: "PctlFormula"
    right: "PctlFormula"


@dataclass(frozen=True)
class ProbF:
    op: str  # '<', '<=', '>', '>='
    bound: float
    path: "PathFormula"


@dataclass(frozen=True)
class Next:
    operand: "PctlFormula"


@dataclass(frozen=True)
class Globally:
    operand: "PctlFormula"


@dataclass(frozen=True)
class Finally:
    operand: "PctlFormula"
    k: int | None = None  # None = unbounded


@dataclass(frozen=True)
class UntilF:
    left: "PctlFormula"
    right: "PctlFormula"
    k: int | None = None


PctlFormula = TrueF | Ap | NotF | AndF | ProbF
PathFormula = Next | Globally | Finally | UntilF


class PctlSyntaxError(SpecSyntaxError):
    """A PCTL formula that does not parse."""


class _Parser(_Cursor):
    _TOKEN = re.compile(r'(?P<str>"[^"]*")|' + _NUM_OR_NAME + r"|(?P<op><=|>=|[!&<>()\[\]])")
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


@dataclass(frozen=True)
class Verdict:
    holds: bool
    probability: float | None  # set when the formula is a top-level P operator
    semantics: str  # "MAX" or "MIN"
    error_bound: float | None  # sup-norm Bellman residual of the probabilities


@dataclass(frozen=True)
class ReachResult:
    probs: dict[StateId, float]
    error_bound: float


class _Indexed:
    """Flat transition arrays for the sweeps, the graph step and policy iteration."""

    def __init__(self, model: AbstractMdp):
        t = model.table
        self.order: list[StateId] = t.order
        self.n = len(self.order)
        self.label = np.array([model.label_name(sid) for sid in self.order], dtype=str)
        # one group per (state, action), both sorted, and destinations sorted
        # within a group: this fixes a sweep's summation order
        new_group = _new_runs(t.src, t.act)
        self.tr_group = np.cumsum(new_group) - 1
        self.tr_dst, self.tr_prob = t.dst, t.prob
        self.group_src = t.src[new_group]
        self.n_groups = len(self.group_src)
        self.has_choice = np.zeros(self.n, dtype=bool)
        self.has_choice[self.group_src] = True
        self.run_start = np.flatnonzero(_new_runs(self.group_src))  # each state's first group

    def group_values(self, x: np.ndarray) -> np.ndarray:
        """One-step expectation of x under each group, summed in the
        order of the transition arrays."""
        return np.bincount(self.tr_group, weights=self.tr_prob * x[self.tr_dst], minlength=self.n_groups)


def _indexed(model: AbstractMdp) -> _Indexed:
    cached = model.caches.get("indexed")
    if cached is None:
        cached = model.caches["indexed"] = _Indexed(model)
    return cached


def _sweep(ix: _Indexed, x: np.ndarray, semantics: str) -> np.ndarray:
    """One Bellman sweep: optimal one-step expectation per state; states
    with no choice keep probability 0 (absorbing convention)."""
    out = np.zeros(ix.n)
    if ix.n_groups:
        extreme = np.maximum if semantics == "MAX" else np.minimum
        out[ix.has_choice] = extreme.reduceat(ix.group_values(x), ix.run_start)
    return out


def _until_probs(model: AbstractMdp, hold: np.ndarray, target: np.ndarray,
                 k: int | None, semantics: str) -> tuple[np.ndarray, float]:
    """Extremal probability of (hold U target), optionally step-bounded,
    and its error bound: 0 when bounded, else the sup-norm Bellman
    residual of the returned vector."""
    ix = _indexed(model)
    x = np.where(target, 1.0, 0.0)
    frozen = target | ~hold  # value fixed: 1 in target, 0 where hold fails
    if k is not None:
        for _ in range(k):
            x_new = _sweep(ix, x, semantics)
            x_new[frozen] = x[frozen]
            if np.array_equal(x_new, x):
                break  # an exact fixpoint: every later sweep returns it again
            x = x_new
        return x, 0.0
    x = _exact_until(ix, ~frozen & ix.has_choice, target, semantics)
    image = _sweep(ix, x, semantics)  # one Bellman step from the answer
    image[frozen] = x[frozen]
    return x, float(np.max(np.abs(image - x), initial=0.0))


def _exact_until(ix: _Indexed, free: np.ndarray, target: np.ndarray, semantics: str) -> np.ndarray:
    """Unbounded (hold U target) by Prob0/Prob1 on the graph, then policy
    iteration on the states left undecided. `free` marks the states whose
    value the schedulers decide: hold, not target, with a choice."""
    live = ix.tr_prob > 0.0
    free_group = free[ix.group_src]

    def hits(mask):  # per group: some successor lies in mask
        return np.bincount(ix.tr_group, weights=mask[ix.tr_dst] & live, minlength=ix.n_groups) > 0

    def some_group(group_mask):  # per state: some group of it is marked
        return np.bincount(ix.group_src, weights=group_mask, minlength=ix.n) > 0

    policy = np.zeros(ix.n, dtype=int)  # the chosen group of each undecided state
    if semantics == "MAX":
        # Prob0E, layer by layer: a newly reached state takes its first group
        # with a successor in the previous layer. This attractor policy is
        # proper, and strict improvement keeps it so.
        def attract(reach):
            out = np.zeros(ix.n, dtype=bool)
            out[_take_first(ix, policy, hits(reach) & free_group & ~reach[ix.group_src])] = True
            return out

        zero = ~_grow(target, attract)
        # Prob1E: the greatest set from which some scheduler stays inside
        # and reaches the target
        one = ~zero
        while True:
            stay = free_group & ~hits(~one)
            inner = _grow(target, lambda r: some_group(stay & hits(r)))
            if not (one & ~inner).any():
                break
            one = inner
    else:
        # Prob0A: Pmin > 0 where every group has a successor that does.
        # Every policy is then proper: a cycle avoiding the target would
        # have made Pmin 0.
        zero = ~_grow(target, lambda r: free & ~some_group(~hits(r)))
        # Prob1A: Pmin = 1 where no scheduler can reach a state of Pmin 0
        one = ~_grow(zero, lambda e: free & some_group(hits(e)))
        _take_first(ix, policy, np.ones(ix.n_groups, dtype=bool))
    x = np.where(one, 1.0, 0.0)
    undecided = np.flatnonzero(~zero & ~one)
    if undecided.size:
        _policy_iteration(ix, x, undecided, policy, 1.0 if semantics == "MAX" else -1.0)
    return x


def _grow(mask: np.ndarray, step) -> np.ndarray:
    """Least fixpoint above `mask` of adding `step(mask)`."""
    mask = mask.copy()
    while True:
        new = step(mask) & ~mask
        if not new.any():
            return mask
        mask |= new


def _take_first(ix: _Indexed, policy: np.ndarray, group_mask: np.ndarray) -> np.ndarray:
    """Point each state that has a marked group at its first one, and
    return those states (groups are sorted by state)."""
    g = np.flatnonzero(group_mask)
    src = ix.group_src[g]
    first = _new_runs(src)
    policy[src[first]] = g[first]
    return src


def _policy_iteration(ix: _Indexed, x: np.ndarray, u: np.ndarray, policy: np.ndarray,
                      sign: float) -> None:
    """Solve the undecided states `u` in place in `x`, starting from a
    proper `policy`; sign +1 maximizes, -1 minimizes. A state switches
    only to a group better than its current one by more than IMPROVE_TOL,
    and to the first best one."""
    row_of = np.full(ix.n, -1)
    row_of[u] = np.arange(len(u))
    own = row_of[ix.group_src] >= 0
    while True:
        chosen = np.zeros(ix.n_groups, dtype=bool)
        chosen[policy[u]] = True
        t = chosen[ix.tr_group]
        rows, dst, p = row_of[ix.group_src[ix.tr_group[t]]], ix.tr_dst[t], ix.tr_prob[t]
        cols = row_of[dst]
        inside = cols >= 0
        a = np.eye(len(u))
        a[rows[inside], cols[inside]] -= p[inside]  # one group per row: no repeated entries
        b = np.bincount(rows[~inside], weights=p[~inside] * x[dst[~inside]], minlength=len(u))
        x[u] = np.linalg.solve(a, b)
        q = ix.group_values(x)
        gain = sign * (q - q[policy[ix.group_src]])
        better = own & (gain > IMPROVE_TOL)
        if not better.any():
            return
        best = np.zeros(ix.n)
        np.maximum.at(best, ix.group_src[better], gain[better])
        _take_first(ix, policy, better & (gain == best[ix.group_src]))


def _sat_mask(model: AbstractMdp, formula: PctlFormula, semantics: str) -> np.ndarray:
    ix = _indexed(model)
    if isinstance(formula, TrueF):
        return np.ones(ix.n, dtype=bool)
    if isinstance(formula, Ap):
        if formula.name not in model.atomic_propositions:
            raise ValueError(
                f"unknown atomic proposition {formula.name!r}; model has {model.atomic_propositions}"
            )
        return ix.label == formula.name
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
    ix = _indexed(model)
    if isinstance(path, Next):
        sat = _sat_mask(model, path.operand, semantics)
        return _sweep(ix, np.where(sat, 1.0, 0.0), semantics), 0.0
    if isinstance(path, Finally):
        target = _sat_mask(model, path.operand, semantics)
        return _until_probs(model, np.ones(ix.n, dtype=bool), target, path.k, semantics)
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
    ix = _indexed(model)
    unknown = set(target) - set(model.states)
    if unknown:
        raise ValueError(f"target states not in the model: {sorted(unknown)}")
    mask = np.array([sid in target for sid in ix.order], dtype=bool)
    probs, error_bound = _until_probs(model, np.ones(ix.n, dtype=bool), mask, k, semantics)
    return ReachResult(
        probs={sid: float(p) for sid, p in zip(ix.order, probs)},
        error_bound=error_bound,
    )


def check(model: AbstractMdp, state: StateId, formula: PctlFormula,
          semantics: str = "MAX") -> Verdict:
    """Evaluate a PCTL state formula at one state of the model."""
    if state not in model.states:
        raise ValueError(f"state {state!r} is not in the model")
    return check_all(model, formula, semantics)[state]


def check_all(model: AbstractMdp, formula: PctlFormula, semantics: str = "MAX") -> dict[StateId, Verdict]:
    """Verdicts for every state in one pass (memoized on the model)."""
    if semantics not in ("MAX", "MIN"):
        raise ValueError(f"semantics must be MAX or MIN, got {semantics!r}")
    key = ("verdicts", formula, semantics)
    cached = model.caches.get(key)
    if cached is not None:
        return cached
    ix = _indexed(model)
    if isinstance(formula, ProbF):
        probs, sat, error_bound = _prob_sat(model, formula, semantics)
        probs = probs.tolist()
    else:
        sat = _sat_mask(model, formula, semantics)
        probs, error_bound = [None] * ix.n, None
    verdicts = {sid: Verdict(holds=holds, probability=p, semantics=semantics, error_bound=error_bound)
                for sid, holds, p in zip(ix.order, sat.tolist(), probs)}
    model.caches[key] = verdicts
    return verdicts
