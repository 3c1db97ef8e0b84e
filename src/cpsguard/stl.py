"""Signal temporal logic: parsing, pretty-printing, robust semantics.

Formulas are evaluated over `signals.Trace` objects on the sampling
grid: a temporal interval [a, b] covers every grid point i*dt with
a <= i*dt <= b (closed on both ends, 1e-9 snap tolerance), and no
inter-sample interpolation is performed. Robustness follows the usual
space-robustness recursion:

    predicate  signed margin of the comparison at the sample
    not        negation
    and / or   min / max
    a -> b     max(-rob(a), rob(b))
    G[a,b] p   min of rob(p) over grid points in the shifted interval
    F[a,b] p   max over the same points
    p U[a,b] q max over t' in the interval of
               min(rob(q, t'), min of rob(p) strictly before t')

Robustness >= 0 counts as satisfied (ties break toward satisfaction).

Concrete grammar (infix, keywords are case-sensitive)::

    formula  := implies
    implies  := or ( '->' implies )?                 right-associative
    or       := and ( 'or' and )*
    and      := until ( 'and' until )*
    until    := unary ( 'U' '[' a ',' b ']' unary )?
    unary    := 'not' unary
              | 'G' '[' a ',' b ']' unary            always
              | 'F' '[' a ',' b ']' unary            eventually
              | '(' formula ')'
              | predicate
    predicate := expr ('<='|'<'|'>='|'>') expr
    expr     := term ( ('+'|'-') term )*
    term     := factor ( '*' factor )*
    factor   := number | channel | 'abs' '(' expr ')' | '-' factor
              | '(' expr ')'

The parser reads each token once, climbing precedence over one table of
infix binding powers: '->' 1 (right-associative), 'or' 2, 'and' 3, 'U' 4,
comparisons 5, '+' and '-' 6, '*' 7; 'not', 'G[a,b]' and 'F[a,b]' take
an operand joined by powers 5 and up, unary '-' an atom. Boolean and
temporal operators take formulas, comparisons and arithmetic values (so
comparisons do not chain); after an operator only looser ones join the
result, or the same one if it chains ('U' does not). A parenthesised
group is whichever of the two its contents are: no '(' is read twice.

Channel names must resolve against the trace they are evaluated on.
Numbers must be finite. This tokenizer and cursor are also the front
end of `pmc`'s PCTL parser; a syntax error gives the position of the
fault. `format_stl` prints numbers exactly: parse_stl(format_stl(f)) == f.
Reference specification strings for the bundled plants:

    acc safety      G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)
    acc recovery    G[0,50]((d_rel < d_safe + 1.4*v_ego)
                            -> F[0,5](d_rel > d_safe + 1.4*v_ego))
    cstr tracking   G[27,30](abs(error) <= 0.35)
"""

from __future__ import annotations

import math
import re

import numpy as np

_SNAP = 1e-9


class Record:
    """An immutable record: every value type of the package, the STL and PCTL
    syntax-tree nodes among them. A subclass lists its fields in `__slots__`,
    and gets an `__init__` that takes them by position or keyword
    (`_defaults` maps a field to its default), then calls `__post_init__`,
    where the class has one; that may check the fields and normalise them
    with `object.__setattr__`. A record equals a record of the same type
    with equal fields. Its hash is computed on first use and kept. `_args`
    holds the field values in order, as `__post_init__` left them."""

    __slots__ = ("_args", "_hash")
    _defaults: dict = {}

    def __init_subclass__(cls):
        # Generated, as dataclasses do: a generic *args loop made parse_stl slower than dataclass nodes did.
        names = cls.__dict__.get("__slots__", ())
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in cls._defaults else name for name in names)
        body = [f"_set_{name}(self, {name})" for name in names]
        values = names
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
            values = [f"self.{name}" for name in names]  # as normalised
        body.append(f"_set__args(self, ({''.join(value + ', ' for value in values)}))")
        scope = {f"_set_{name}": getattr(cls, name).__set__ for name in (*names, "_args")}
        scope["_defaults"] = cls._defaults
        exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), scope)
        cls.__init__ = scope["__init__"]

    def __eq__(self, other):
        if type(other) is type(self):
            return self is other or self._args == other._args
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first use; hashing the children of every node as it is built slowed parsing
            object.__setattr__(self, "_hash", hash((type(self), self._args)))
            return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._args))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild the record rather than set its slots
        return type(self), self._args

    def replace(self, **changes):
        """A record of the same type with `changes` laid over these fields, built, and so
        checked and normalised, as a new one is."""
        return type(self)(**dict(zip(self.__slots__, self._args), **changes))


# ---------------------------------------------------------------------------
# expression AST (the left/right sides of predicates)


class Var(Record):
    __slots__ = ("name",)


class Const(Record):
    __slots__ = ("value",)


class BinExpr(Record):
    __slots__ = ("op", "left", "right")  # op: '+', '-', '*'


class NegExpr(Record):
    __slots__ = ("operand",)


class AbsExpr(Record):
    __slots__ = ("operand",)


Expr = Var | Const | BinExpr | NegExpr | AbsExpr


def eval_expr(expr: Expr, trace: Trace) -> np.ndarray:
    """Vector of expression values, one entry per trace step."""
    if isinstance(expr, Var):
        return trace.column(expr.name)
    if isinstance(expr, Const):
        return np.full(len(trace), expr.value)
    if isinstance(expr, NegExpr):
        return -eval_expr(expr.operand, trace)
    if isinstance(expr, AbsExpr):
        return np.abs(eval_expr(expr.operand, trace))
    left = eval_expr(expr.left, trace)
    right = eval_expr(expr.right, trace)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    raise ValueError(f"unknown operator {expr.op!r}")


# ---------------------------------------------------------------------------
# formula AST


class Pred(Record):
    __slots__ = ("left", "op", "right")  # op: '<=', '<', '>=', '>'


class Not(Record):
    __slots__ = ("operand",)


class And(Record):
    __slots__ = ("left", "right")


class Or(Record):
    __slots__ = ("left", "right")


class Implies(Record):
    __slots__ = ("left", "right")


def _check_interval(lo: float, hi: float) -> None:
    if not 0.0 <= lo <= hi:
        raise ValueError(f"malformed temporal interval [{lo}, {hi}]")


class Always(Record):
    __slots__ = ("lo", "hi", "operand")

    def __post_init__(self):
        _check_interval(self.lo, self.hi)


class Eventually(Record):
    __slots__ = ("lo", "hi", "operand")

    def __post_init__(self):
        _check_interval(self.lo, self.hi)


class Until(Record):
    __slots__ = ("lo", "hi", "left", "right")

    def __post_init__(self):
        _check_interval(self.lo, self.hi)


StlFormula = Pred | Not | And | Or | Implies | Always | Eventually | Until


def horizon(formula: StlFormula) -> float:
    """Largest look-ahead in seconds the formula needs beyond its start time."""
    if isinstance(formula, Pred):
        return 0.0
    if isinstance(formula, Not):
        return horizon(formula.operand)
    if isinstance(formula, (And, Or, Implies)):
        return max(horizon(formula.left), horizon(formula.right))
    if isinstance(formula, (Always, Eventually)):
        return formula.hi + horizon(formula.operand)
    if isinstance(formula, Until):
        return formula.hi + max(horizon(formula.left), horizon(formula.right))
    raise TypeError(f"not an STL formula: {formula!r}")


# ---------------------------------------------------------------------------
# parser


class SpecSyntaxError(ValueError):
    """A specification text that does not parse, with the position of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class StlSyntaxError(SpecSyntaxError):
    """An STL formula that does not parse."""


def _token_pattern(kinds: str) -> re.Pattern:
    """One token after any whitespace: `kinds` has a named group per kind,
    tried in order, and any other character is the group `bad`."""
    return re.compile(r"\s*(?:" + kinds + r"|(?P<bad>\S))")


class _Cursor:
    """The front end of the STL and PCTL parsers: a text's (kind, value,
    position) tokens, ending in ("end", "", len(text)), and a read position.
    A subclass sets `_TOKEN`, from `_token_pattern`, and `_ERROR`."""

    def __init__(self, text: str):
        self.tokens = tokens = []
        for m in self._TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise self._ERROR(f"unexpected character {m[kind]!r}", m.start(kind))
            tokens.append((kind, m[kind], m.start(kind)))
        tokens.append(("end", "", len(text)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expected(self, what: str):
        _, val, at = self.peek()
        raise self._ERROR(f"expected {what}, found {val or 'end of input'!r}", at)

    def expect(self, value: str):
        if self.peek()[1] != value:
            self.expected(repr(value))
        return self.next()

    def finish(self, node):
        """`node`, once the parse that returned it has read the whole text."""
        kind, val, at = self.peek()
        if kind != "end":
            raise self._ERROR(f"trailing input {val!r}", at)
        return node


_NUM_OR_NAME = r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
_KEYWORDS = {"not", "and", "or", "abs"}
# the binding powers of the infix operators, loosest first; the module docstring gives the rules
_BINDING = {"->": 1, "or": 2, "and": 3, "U": 4, "<=": 5, "<": 5, ">=": 5, ">": 5, "+": 6, "-": 6, "*": 7}
_BOOLEAN = {"->": Implies, "or": Or, "and": And}


class _Parser(_Cursor):
    _TOKEN = _token_pattern(_NUM_OR_NAME + r"|(?P<op><=|>=|->|[-+*<>()\[\],])")
    _ERROR = StlSyntaxError

    def parse(self, floor: int, kind: str | None) -> StlFormula | Expr:
        """The node that starts here, grown by each infix operator after it that binds at least
        `floor`; `kind` is what the caller needs: "formula", "value", or None (a group: either)."""
        node = self.prefix(kind)
        ceiling = 8  # after an operator only looser ones follow, or the same one if it chains
        while True:
            op = self.tokens[self.pos][1]
            power = _BINDING.get(op, 0)
            if not floor <= power < ceiling or (power < 5) == isinstance(node, Expr):
                break  # no operator of this level, or one whose left operand is of the other kind
            self.pos += 1
            ceiling = power if op == "U" else power + 1  # U does not chain; a comparison yields no value
            if power > 5:
                node = BinExpr(op, node, self.parse(power + 1, "value"))
            elif power == 5:
                node = Pred(node, op, self.parse(6, "value"))
            elif power == 4:
                lo, hi = self.parse_interval()
                node = Until(lo, hi, node, self.parse(5, "formula"))
            else:
                node = _BOOLEAN[op](node, self.parse(power + (op != "->"), "formula"))
        if kind == "formula" and isinstance(node, Expr):
            self.expected("a comparison operator")
        return node

    def prefix(self, kind: str | None) -> StlFormula | Expr:
        """The operand that starts here. Where a value is needed, `not`, G[..] and F[..] are
        not read as operators, and a group holds a value."""
        tok, val, _ = self.tokens[self.pos]
        if tok == "num":
            return Const(self.parse_number())
        if tok == "name" and val not in _KEYWORDS:
            self.pos += 1
            if val in ("G", "F") and kind != "value" and self.tokens[self.pos][1] == "[":
                lo, hi = self.parse_interval()
                return (Always if val == "G" else Eventually)(lo, hi, self.parse(5, "formula"))
            return Var(val)
        if val == "(":
            self.pos += 1
            node = self.parse(6, "value") if kind == "value" else self.parse(1, None)
            self.expect(")")
            return node
        if val == "-":
            self.pos += 1
            return NegExpr(self.prefix("value"))
        if val == "abs":
            self.pos += 1
            if self.tokens[self.pos][1] != "(":
                self.expected("'('")
            return AbsExpr(self.prefix("value"))
        if val == "not" and kind != "value":
            self.pos += 1
            return Not(self.parse(5, "formula"))
        self.expected("a value")

    def parse_interval(self) -> tuple[float, float]:
        self.expect("[")
        lo = self.parse_number()
        self.expect(",")
        hi = self.parse_number()
        kind, _, at = self.peek()
        self.expect("]")
        if lo < 0 or lo > hi:
            raise StlSyntaxError(f"malformed interval [{lo}, {hi}]", at)
        return lo, hi

    def parse_number(self) -> float:
        sign = 1.0
        if self.peek()[1] == "-":
            self.next()
            sign = -1.0
        kind, val, at = self.peek()
        if kind != "num":
            raise StlSyntaxError(f"expected a number, found {val!r}", at)
        self.next()
        value = float(val)
        if math.isinf(value):
            raise StlSyntaxError(f"number {val} is not finite", at)
        return sign * value


def parse_stl(text: str) -> StlFormula:
    """Parse the documented grammar; raises StlSyntaxError with a position."""
    parser = _Parser(text)
    return parser.finish(parser.parse(1, "formula"))


# ---------------------------------------------------------------------------
# pretty printer (parse(format_stl(f)) == f)


def _fmt_num(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_expr(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return _fmt_num(expr.value)
    if isinstance(expr, NegExpr):
        return f"-{_fmt_expr_atom(expr.operand)}"
    if isinstance(expr, AbsExpr):
        return f"abs({_fmt_expr(expr.operand)})"
    if expr.op == "*":
        return f"{_fmt_expr_atom(expr.left)}*{_fmt_expr_atom(expr.right)}"
    return f"{_fmt_expr(expr.left)} {expr.op} {_fmt_expr_atom(expr.right)}"


def _fmt_expr_atom(expr: Expr) -> str:
    if isinstance(expr, BinExpr):
        return f"({_fmt_expr(expr)})"
    return _fmt_expr(expr)


def format_stl(formula: StlFormula) -> str:
    if isinstance(formula, Pred):
        return f"{_fmt_expr(formula.left)} {formula.op} {_fmt_expr(formula.right)}"
    if isinstance(formula, Not):
        return f"not ({format_stl(formula.operand)})"
    if isinstance(formula, And):
        return f"({format_stl(formula.left)}) and ({format_stl(formula.right)})"
    if isinstance(formula, Or):
        return f"({format_stl(formula.left)}) or ({format_stl(formula.right)})"
    if isinstance(formula, Implies):
        return f"({format_stl(formula.left)}) -> ({format_stl(formula.right)})"
    if isinstance(formula, Always):
        return f"G[{_fmt_num(formula.lo)},{_fmt_num(formula.hi)}]({format_stl(formula.operand)})"
    if isinstance(formula, Eventually):
        return f"F[{_fmt_num(formula.lo)},{_fmt_num(formula.hi)}]({format_stl(formula.operand)})"
    if isinstance(formula, Until):
        return (
            f"({format_stl(formula.left)}) U[{_fmt_num(formula.lo)},{_fmt_num(formula.hi)}]"
            f" ({format_stl(formula.right)})"
        )
    raise TypeError(f"not an STL formula: {formula!r}")


# ---------------------------------------------------------------------------
# robust semantics


def _offsets(lo: float, hi: float, dt: float) -> tuple[int, int]:
    """Grid offsets [j0, j1] covered by the closed interval [lo, hi]."""
    j0 = int(math.ceil((lo - _SNAP) / dt))
    j1 = int(math.floor((hi + _SNAP) / dt))
    return max(j0, 0), j1


def _window_extreme(values: np.ndarray, j0: int, j1: int, kind: str) -> np.ndarray:
    """out[i] = min/max of values[i+j0 .. i+j1], clipped at the trace end.

    Windows that fall entirely past the end yield +inf (min) / -inf (max).
    """
    T = len(values)
    pad_value = np.inf if kind == "min" else -np.inf
    if j1 < j0:
        return np.full(T, pad_value)
    width = j1 - j0 + 1
    ext = np.concatenate([values, np.full(j0 + width, pad_value)])
    windows = np.lib.stride_tricks.sliding_window_view(ext, width)
    agg = windows.min(axis=1) if kind == "min" else windows.max(axis=1)
    return agg[j0 : j0 + T]


def _rob_array(formula: StlFormula, trace: Trace) -> np.ndarray:
    """Robustness at every start index, windows clipped at the trace end."""
    if isinstance(formula, Pred):
        left = eval_expr(formula.left, trace)
        right = eval_expr(formula.right, trace)
        if formula.op in (">=", ">"):
            return left - right
        return right - left
    if isinstance(formula, Not):
        return -_rob_array(formula.operand, trace)
    if isinstance(formula, And):
        return np.minimum(_rob_array(formula.left, trace), _rob_array(formula.right, trace))
    if isinstance(formula, Or):
        return np.maximum(_rob_array(formula.left, trace), _rob_array(formula.right, trace))
    if isinstance(formula, Implies):
        return np.maximum(-_rob_array(formula.left, trace), _rob_array(formula.right, trace))
    if isinstance(formula, (Always, Eventually)):
        inner = _rob_array(formula.operand, trace)
        j0, j1 = _offsets(formula.lo, formula.hi, trace.dt)
        kind = "min" if isinstance(formula, Always) else "max"
        return _window_extreme(inner, j0, j1, kind)
    if isinstance(formula, Until):
        left = _rob_array(formula.left, trace)
        right = _rob_array(formula.right, trace)
        j0, j1 = _offsets(formula.lo, formula.hi, trace.dt)
        # One pass per witness offset j over all start indices i, keeping prefix[i] = min left[i .. i+j-1];
        # offsets past the trace end count as right = -inf. On 0.0/-0.0 ties the argument order keeps the
        # running value, as a scalar min/max recursion does. NaN inputs now propagate, as in G and F.
        T = len(trace)
        out = np.full(T, -np.inf)
        prefix = np.full(T, np.inf)
        for j in range(min(j1, T - 1) + 1):
            if j >= 1:
                np.minimum(left[j - 1 : T - 1], prefix[: T - j], out=prefix[: T - j])
            if j >= j0:
                np.maximum(np.minimum(prefix[: T - j], right[j:]), out[: T - j], out=out[: T - j])
        return out
    raise TypeError(f"not an STL formula: {formula!r}")


def robustness_per_step(trace: Trace, formula: StlFormula) -> np.ndarray:
    """Robustness at every grid index, temporal windows falling back to
    the largest horizon the trace still covers."""
    return _rob_array(formula, trace)


def labeling_robustness(trace: Trace, formula: StlFormula) -> np.ndarray:
    """Per-state robustness used to label abstract states.

    For the usual safety shape G[a,b](body) this is the body's
    robustness at each step, so a state is scored by how the system is
    doing right there, not by whether the rest of the run eventually
    fails somewhere else; suffix scoring smears one late violation over
    every earlier state and makes labels spatially meaningless. For
    formulas that are not top-level always-patterns it falls back to
    the clipped whole-formula robustness at each start index.
    """
    if isinstance(formula, Always):
        return _rob_array(formula.operand, trace)
    return _rob_array(formula, trace)


def robustness(trace: Trace, formula: StlFormula, t0: float = 0.0) -> float:
    """Robust satisfaction degree of the formula at start time t0."""
    need = t0 + horizon(formula)
    if need > trace.end_time + _SNAP:
        raise ValueError(
            f"trace too short for formula horizon: needs {need}s, trace covers {trace.end_time}s"
        )
    if t0 < -_SNAP:
        raise ValueError(f"start time {t0} before trace start")
    i0 = min(int(math.floor(t0 / trace.dt + 0.5)), len(trace) - 1)
    return float(_rob_array(formula, trace)[i0])


def satisfied(trace: Trace, formula: StlFormula) -> bool:
    """Boolean verdict at time 0; zero robustness counts as satisfied."""
    return robustness(trace, formula, 0.0) >= 0.0
