"""STL parser and robustness tests against the brute-force oracle in
oracles.py (a naive pointwise recursion independent of the array-based
production path)."""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from oracles import parse_stl_oracle, random_formula, random_stl_case, rob_oracle, subterms

from cpsguard import stl
from cpsguard.abstraction import AbstractionConfig
from cpsguard.falsify import FalsifyConfig
from cpsguard.pmc import parse_pctl
from cpsguard.signals import Trace
from cpsguard.stl import (
    Always,
    And,
    Eventually,
    Not,
    Or,
    Pred,
    StlSyntaxError,
    Until,
    format_stl,
    parse_stl,
    robustness,
    robustness_per_step,
    satisfied,
)


def const_trace(value, steps, dt=1.0, channel="speed"):
    states = np.full((steps, 1), float(value))
    return Trace(dt=dt, channels=(channel,), states=states,
                 actions=np.zeros(steps), inputs=np.zeros((steps, 1)))


def multi_trace(data, dt=1.0, channels=("a", "b")):
    data = np.asarray(data, dtype=float)
    return Trace(dt=dt, channels=channels, states=data,
                 actions=np.zeros(len(data)), inputs=np.zeros((len(data), 1)))


# ---------------------------------------------------------------------------
# parsing


class TestParse:
    def test_acc_safety_spec(self):
        f = parse_stl("G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)")
        assert isinstance(f, Always)
        assert (f.lo, f.hi) == (0.0, 50.0)
        assert isinstance(f.operand, Pred)

    def test_cstr_spec(self):
        f = parse_stl("G[27,30](abs(error) <= 0.35)")
        assert isinstance(f, Always)
        assert isinstance(f.operand.left, stl.AbsExpr)

    def test_unbalanced_paren(self):
        with pytest.raises(StlSyntaxError):
            parse_stl("G[0,1](x >= 0")

    def test_malformed_interval(self):
        with pytest.raises(StlSyntaxError, match="interval"):
            parse_stl("G[3,1](x >= 0)")

    def test_error_carries_position(self):
        with pytest.raises(StlSyntaxError) as err:
            parse_stl("x >= @")
        assert err.value.position == 5

    def test_roundtrip_on_handwritten_formulas(self):
        texts = [
            "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)",
            "G[0,50]((d_rel < d_safe + 1.4*v_ego) -> F[0,5](d_rel > d_safe + 1.4*v_ego))",
            "G[27,30](abs(error) <= 0.35)",
            "not (a >= 1) and (b < 2 or a > 3)",
            "(a >= 0) U[1,4] (b <= 1)",
            "F[0,2](-a + 2*b > 0.5)",
        ]
        for text in texts:
            f = parse_stl(text)
            assert parse_stl(format_stl(f)) == f, text

    # format_stl parenthesises every boolean operand, so the random round trip never meets these
    @pytest.mark.parametrize("text,want", [
        ("not a >= 1 and b < 2", "(not (a >= 1)) and (b < 2)"),
        ("a >= 0 -> b >= 0 -> c >= 0", "(a >= 0) -> ((b >= 0) -> (c >= 0))"),
        ("G[0,1] x >= 0 U[0,2] y >= 0", "(G[0,1](x >= 0)) U[0,2] (y >= 0)"),
        ("not a >= 0 U[0,1] b >= 0", "(not (a >= 0)) U[0,1] (b >= 0)"),
        ("((a)) >= 1", "a >= 1"),
        ("(a + b) >= 1", "a + b >= 1"),
        ("-a*b - c >= abs(-(d))", "-a*b - c >= abs(-d)"),
    ])
    def test_precedence(self, text, want):
        assert format_stl(parse_stl(text)) == want

    @pytest.mark.parametrize("text,message", [
        ("a < b < c", "trailing input '<' (at position 6)"),
        ("x >= 0 U[0,1] y >= 0 U[0,1] z >= 0", "trailing input 'U' (at position 21)"),
        ("a >= 0 and b >= 0 U[0,1] c >= 0 U[0,1] d >= 0", "trailing input 'U' (at position 32)"),
        ("(a >= 0) -> b >= 0 U[0,1] c >= 0 U[0,1] d >= 0", "trailing input 'U' (at position 33)"),
    ])
    def test_until_and_comparisons_do_not_chain(self, text, message):
        with pytest.raises(StlSyntaxError) as err:
            parse_stl(text)
        assert str(err.value) == message


# numbers that `%g` would round, and numbers on both sides of the
# printer's switch from integer to exponent form at 1e15
ROUNDTRIP_NUMBERS = (0.0, 1.0, 0.5, 0.99999999, 0.1234567, 3e20, 1e15, 1e-7, 2.5e-300, 0.1 + 0.2, 123456789.0)


def pick(rng, options):
    """One of options, each equally likely; an index is cheaper to draw than `Generator.choice`, which
    makes an array of the options."""
    return options[rng.integers(len(options))]


def random_parsed_expr(rng, depth):
    kind = pick(rng, ("var", "const", "neg", "abs", "+", "-", "*") if depth > 0 else ("var", "const"))
    if kind == "var":
        return stl.Var(pick(rng, ("a", "b", "v_ego", "G", "U")))
    if kind == "const":  # non-negative: a leading minus parses as negation
        return stl.Const(pick(rng, ROUNDTRIP_NUMBERS) if rng.random() < 0.7 else float(rng.exponential(10.0)))
    if kind == "neg":
        return stl.NegExpr(random_parsed_expr(rng, depth - 1))
    if kind == "abs":
        return stl.AbsExpr(random_parsed_expr(rng, depth - 1))
    return stl.BinExpr(kind, random_parsed_expr(rng, depth - 1), random_parsed_expr(rng, depth - 1))


def random_parsed_stl(rng, depth):
    """A random formula of the kind parse_stl returns."""
    kind = pick(rng, ("pred", "not", "and", "or", "->", "G", "F", "U") if depth > 0 else ("pred",))
    if kind == "pred":
        op = pick(rng, ("<=", "<", ">=", ">"))
        return Pred(random_parsed_expr(rng, 2), op, random_parsed_expr(rng, 2))
    if kind == "not":
        return Not(random_parsed_stl(rng, depth - 1))
    if kind in ("and", "or", "->"):
        node = {"and": And, "or": Or, "->": stl.Implies}[kind]
        return node(random_parsed_stl(rng, depth - 1), random_parsed_stl(rng, depth - 1))
    lo, hi = sorted((pick(rng, ROUNDTRIP_NUMBERS), pick(rng, ROUNDTRIP_NUMBERS)))
    if kind == "U":
        return Until(lo, hi, random_parsed_stl(rng, depth - 1), random_parsed_stl(rng, depth - 1))
    return (Always if kind == "G" else Eventually)(lo, hi, random_parsed_stl(rng, depth - 1))


class TestFrontEnd:
    def test_roundtrip_on_random_formulas(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            f = random_parsed_stl(rng, int(rng.integers(0, 4)))
            assert parse_stl(format_stl(f)) == f, format_stl(f)

    @pytest.mark.parametrize("text,position", [
        ("x <= 1e999", 5),
        ("x*2E+400 > 0", 2),
        ("-1e999 < x", 1),
        ("G[0,5](F[0,1e999](level >= 0))", 11),
        ("G[1e309,1e310](x >= 0)", 2),
        ("(x <= 1e999)", 6),
    ])
    def test_non_finite_number_is_a_syntax_error(self, text, position):
        with pytest.raises(StlSyntaxError, match="is not finite") as err:
            parse_stl(text)
        assert err.value.position == position


@pytest.fixture(scope="module")
def printed_formulas():
    """20,000 random formulas as format_stl prints them."""
    rng = np.random.default_rng(25)
    return [format_stl(random_parsed_stl(rng, int(rng.integers(0, 4)))) for _ in range(20_000)]


def parse_outcome(parse, text):
    """The tree `parse` returns for `text`, or None where it raises StlSyntaxError."""
    try:
        return parse(text)
    except StlSyntaxError:
        return None


# every token kind of the grammar, one spelling each
MUTATION_TOKENS = ("(", ")", "[", "]", ",", "-", "+", "*", "<=", "<", ">=", ">", "->",
                   "and", "or", "not", "abs", "U", "G", "F", "x", "1", "0.5")
BRACKETS = ("(", ")", "[", "]")


class TestParserOracle:
    """parse_stl against the recursive-descent parser it replaced, oracles.parse_stl_oracle:
    equal trees where either accepts, and the same refusals; error positions may differ."""

    def test_equal_trees_on_random_formulas(self, printed_formulas):
        for text in printed_formulas:
            assert parse_stl(text) == parse_stl_oracle(text), text

    @pytest.mark.parametrize("text", [
        "G[0,50](d_rel - (d_safe + 1.4*v_ego) >= 0)",
        "G[0,50]((d_rel < d_safe + 1.4*v_ego) -> F[0,5](d_rel > d_safe + 1.4*v_ego))",
        "G[0,25]((abs(error) <= 0.3) U[0,5] (abs(error) <= 0.15))",
        "G[0,5](1.2 - level >= 0))", "G[0,5](1.2 - level)", "G[0,5](1.2 - level >= 0",
        "not not a > 0 or b > 0 and c > 0 -> d > 0", "F[0,1] not a >= 0 U[0,1] b >= 0 and c > 0",
        "not (a) > 0", "(a >= 0) + 1 >= 0", "x >= (a >= 0)", "(a) and b >= 0", "a and b >= 0", "G >= F",
        "G[0,1] >= 0", "U U[0,1] U > 0", "abs x > 0", "abs((a)) > 0", "x >= -(-(1))",
        "((a >= 0) U[0,1] (b >= 0)) -> (not ((c)) > 1)", "", "()", "(((",
        "a >= 0 and b >= 0 U[0,1] c >= 0 U[0,1] d >= 0", "a > 0 or b > 0 U[0,1] c > 0 U[0,1] d > 0",
        "(a >= 0) -> b >= 0 U[0,1] c >= 0 U[0,1] d >= 0", "a > 0 -> b > 0 -> c > 0 U[0,1] d > 0 U[0,1] e > 0",
    ])
    def test_equal_trees_or_both_refuse_on_handwritten_texts(self, text):
        assert parse_outcome(parse_stl, text) == parse_outcome(parse_stl_oracle, text)

    def test_same_verdict_on_mutated_strings(self, printed_formulas):
        """Each formula with one token deleted, one inserted, or one bracket deleted or added."""
        rng = np.random.default_rng(26)
        accepted = 0
        for n, text in enumerate(printed_formulas):
            tokens = [val for _, val, _ in stl._Parser(text).tokens[:-1]]
            at = int(rng.integers(len(tokens) + 1))
            if n % 3 == 0:
                del tokens[min(at, len(tokens) - 1)]
            elif n % 3 == 1:
                tokens.insert(at, str(rng.choice(MUTATION_TOKENS)))
            else:
                brackets = [i for i, val in enumerate(tokens) if val in BRACKETS]
                if brackets and rng.random() < 0.5:
                    del tokens[int(rng.choice(brackets))]
                else:
                    tokens.insert(at, str(rng.choice(BRACKETS)))
            mutant = " ".join(tokens)
            got = parse_outcome(parse_stl, mutant)
            assert got == parse_outcome(parse_stl_oracle, mutant), mutant
            accepted += got is not None
        assert 1000 < accepted < 19_000  # both verdicts are well represented

    def test_same_outcome_with_parentheses_dropped(self, printed_formulas):
        """Each formula with each matched pair of parentheses dropped at even odds, so that
        operators meet bare, as the printer never writes them."""
        rng = np.random.default_rng(27)
        accepted = 0
        for text in printed_formulas:
            tokens = [val for _, val, _ in stl._Parser(text).tokens[:-1]]
            opened, dropped = [], set()
            for i, val in enumerate(tokens):
                if val == "(":
                    opened.append(i)
                elif val == ")" and rng.random() < 0.5:
                    dropped.update((opened.pop(), i))
                elif val == ")":
                    opened.pop()
            bare = " ".join(val for i, val in enumerate(tokens) if i not in dropped)
            got = parse_outcome(parse_stl, bare)
            assert got == parse_outcome(parse_stl_oracle, bare), bare
            accepted += got is not None
        assert 1000 < accepted < 19_000


# between them, one of each of the thirteen STL node types
EVERY_STL_NODE = [node for text in ("G[0,5](not (abs(-a + 2*b) >= 1) and (a < 1 or (a > 0 -> F[0,1](b <= 1))))",
                                    "(a >= 0) U[1,4] (b <= 1)")
                  for node in subterms(parse_stl(text))]


class TestNodes:
    def test_the_sample_has_every_node_type(self):
        assert {type(node) for node in EVERY_STL_NODE} == {
            stl.Var, stl.Const, stl.BinExpr, stl.NegExpr, stl.AbsExpr, Pred, Not, And, Or, stl.Implies,
            Always, Eventually, Until}

    def test_distinct_types_with_equal_fields_differ(self):
        p, q, v = parse_stl("a >= 0"), parse_stl("b < 1"), stl.Var("a")
        for group in ([And(p, q), Or(p, q), stl.Implies(p, q)], [Always(0.0, 1.0, p), Eventually(0.0, 1.0, p)],
                      [Not(v), stl.NegExpr(v), stl.AbsExpr(v)]):
            for a, b in itertools.combinations(group, 2):
                assert a != b and hash(a) != hash(b), (a, b)
                assert {a: 1}.get(b) is None

    def test_equal_fields_compare_and_hash_equal(self):
        text = "G[0,50]((d_rel < d_safe + 1.4*v_ego) -> F[0,5](d_rel > d_safe + 1.4*v_ego))"
        f, g = parse_stl(text), parse_stl(text)
        assert f is not g and f == g and hash(f) == hash(g) and not f != g
        assert f != parse_stl(text.replace("1.4", "1.5")) and f != text

    def test_keywords_and_positions_build_the_same_node(self):
        p = parse_stl("a >= 0")
        assert Always(lo=0.0, hi=2.0, operand=p) == Always(0.0, 2.0, p) == Always(0.0, hi=2.0, operand=p)
        with pytest.raises(TypeError):
            Always(0.0, 2.0)
        with pytest.raises(TypeError):
            Always(0.0, 2.0, p, lo=1.0)

    @pytest.mark.parametrize("node", [Always, Eventually])
    def test_a_malformed_interval_is_refused(self, node):
        with pytest.raises(ValueError, match=r"malformed temporal interval \[2.0, 1.0\]"):
            node(2.0, 1.0, parse_stl("a >= 0"))
        with pytest.raises(ValueError, match="malformed temporal interval"):
            Until(-1.0, 1.0, parse_stl("a >= 0"), parse_stl("a >= 0"))

    def test_repr_names_every_field(self):
        assert repr(parse_stl("G[0,1](x >= 0)")) == (
            "Always(lo=0.0, hi=1.0, operand=Pred(left=Var(name='x'), op='>=', right=Const(value=0.0)))")

    def test_fields_cannot_be_set_or_deleted(self):
        for node in EVERY_STL_NODE:
            for name in (*type(node).__slots__, "extra"):
                with pytest.raises(AttributeError):
                    setattr(node, name, None)
                with pytest.raises(AttributeError):
                    delattr(node, name)
        assert parse_stl("a >= 0").op == ">="

    def test_copies_and_pickles_are_equal(self):
        for node in EVERY_STL_NODE:
            for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
                assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)


class TestRecord:
    def test_replace_checks_and_normalises_as_a_new_record_does(self):
        search = FalsifyConfig(parse_stl("a >= 0"), parse_pctl('P>0.5 [ F "rob=-1" ]'))
        with pytest.raises(ValueError, match="budgets must be >= 1"):
            search.replace(global_budget=0)
        assert search.replace(seed=3) == FalsifyConfig(search.stl_spec, search.safety_query, seed=3)
        grid = AbstractionConfig().replace(bounds=[[0, 1]])
        assert grid.bounds == ((0.0, 1.0),) and type(grid.bounds[0][0]) is float
        # equality, hash and pickling read the fields as normalised
        same = AbstractionConfig(bounds=((0.0, 1.0),))
        assert grid == same and hash(grid) == hash(same) and pickle.loads(pickle.dumps(grid)) == same


# ---------------------------------------------------------------------------
# robustness on the worked examples


class TestRobustness:
    def test_constant_speed_margin_positive(self):
        tr = const_trace(58.0, steps=31)
        f = parse_stl("G[0,30](speed <= 60)")
        assert robustness(tr, f) == pytest.approx(2.0)

    def test_constant_speed_margin_negative(self):
        tr = const_trace(62.0, steps=31)
        f = parse_stl("G[0,30](speed <= 60)")
        assert robustness(tr, f) == pytest.approx(-2.0)

    def test_trace_too_short(self):
        tr = const_trace(58.0, steps=10)
        f = parse_stl("G[0,30](speed <= 60)")
        with pytest.raises(ValueError, match="trace covers"):
            robustness(tr, f)

    def test_satisfied_matches_sign(self):
        f = parse_stl("G[0,30](speed <= 60)")
        assert satisfied(const_trace(58.0, 31), f) is True
        assert satisfied(const_trace(62.0, 31), f) is False

    def test_zero_robustness_is_satisfied(self):
        f = parse_stl("G[0,30](speed <= 60)")
        assert satisfied(const_trace(60.0, 31), f) is True

    def test_until_semantics_hand_case(self):
        # a high until b high: witness at index 2, left holds before it
        data = [[1.0, -1.0], [0.5, -1.0], [0.2, 3.0]]
        tr = multi_trace(data)
        f = parse_stl("(a > 0) U[0,2] (b > 0)")
        # candidates: j=0: min(-1, inf)= -1; j=1: min(-1, 1)= -1; j=2: min(3, min(1,0.5)) = 0.5
        assert robustness(tr, f) == pytest.approx(0.5)

    def test_per_step_clips_at_trace_end(self):
        tr = const_trace(58.0, steps=31)
        f = parse_stl("G[0,30](speed <= 60)")
        per = robustness_per_step(tr, f)
        assert per.shape == (31,)
        assert np.all(per == pytest.approx(2.0))


# ---------------------------------------------------------------------------
# randomized oracle equivalence and algebraic properties


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            trace, formula = random_stl_case(rng)
            got = robustness(trace, formula, 0.0)
            want = rob_oracle(formula, trace, 0)
            assert got == want, format_stl(formula)
            assert satisfied(trace, formula) == (want >= 0.0)

    @pytest.mark.parametrize("steps", [1, 2, 7, 30])
    @pytest.mark.parametrize("lo,hi", [(0.0, 0.0), (0.0, 3.0), (2.0, 4.0), (3.0, 50.0), (5.0, 5.0)])
    def test_until_matches_brute_force(self, steps, lo, hi):
        # offsets from j0 > 0, windows running past the trace end, T = 1
        rng = np.random.default_rng(steps)
        trace = multi_trace(rng.uniform(-3, 3, size=(steps, 2)))
        formula = Until(lo, hi, parse_stl("a + 0.5 >= 0"), parse_stl("b >= 1"))
        got = robustness_per_step(trace, formula)
        for i in range(steps):
            assert got[i] == rob_oracle(formula, trace, i)

    def test_negation_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            trace, formula = random_stl_case(rng)
            assert robustness(trace, Not(formula)) == -robustness(trace, formula)

    def test_always_eventually_duality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            channels = ("a", "b")
            dt = 1.0
            inner = random_formula(rng, channels, dt, depth=int(rng.integers(1, 3)))
            lo, hi = 0.0, 2.0 * dt
            wrapped = Always(lo, hi, inner)
            steps = int(math.ceil(stl.horizon(wrapped) / dt)) + int(rng.integers(1, 10))
            trace = multi_trace(rng.uniform(-3, 3, size=(steps, 2)), dt=dt, channels=channels)
            left = robustness(trace, wrapped)
            right = -robustness(trace, Eventually(lo, hi, Not(inner)))
            assert left == right

    def test_monotone_in_positive_channel(self):
        # formulas built from and/or/G/F/U over predicates with a positive
        # coefficient on channel a never lose robustness when a increases
        rng = np.random.default_rng(11)

        def monotone_formula(depth):
            kind = rng.choice(["pred", "and", "or", "G", "F", "U"] if depth > 0 else ["pred"])
            if kind == "pred":
                coeff = round(float(rng.uniform(0.1, 2.0)), 2)
                expr = stl.BinExpr("*", stl.Const(coeff), stl.Var("a"))
                return Pred(expr, ">=", stl.Const(round(float(rng.uniform(-1, 1)), 2)))
            if kind in ("and", "or"):
                node = {"and": And, "or": Or}[kind]
                return node(monotone_formula(depth - 1), monotone_formula(depth - 1))
            lo = float(rng.integers(0, 2))
            hi = lo + float(rng.integers(0, 3))
            if kind == "G":
                return Always(lo, hi, monotone_formula(depth - 1))
            if kind == "F":
                return Eventually(lo, hi, monotone_formula(depth - 1))
            return Until(lo, hi, monotone_formula(depth - 1), monotone_formula(depth - 1))

        for _ in range(100):
            formula = monotone_formula(2)
            steps = int(math.ceil(stl.horizon(formula))) + 5
            base = rng.uniform(-2, 2, size=(steps, 1))
            bumped = base + rng.uniform(0.0, 1.0)
            tr0 = multi_trace(base, dt=1.0, channels=("a",))
            tr1 = multi_trace(bumped, dt=1.0, channels=("a",))
            assert robustness(tr1, formula) >= robustness(tr0, formula)
