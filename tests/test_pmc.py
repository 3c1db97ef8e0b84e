"""PCTL checker tests.

Oracles in oracles.py guard the engine. Step-bounded answers (value
iteration) meet a top-down memoized recursion over (state, steps-left)
that enumerates the action choices at every depth and, on small
instances, a full enumeration of every time-dependent memoryless
scheduler whose induced chain is evaluated by plain path expansion.
Unbounded answers (Prob0/Prob1 and policy iteration) meet an
enumeration of every memoryless deterministic scheduler whose induced
chain is solved as a linear system, and the closed form of a slow
random walk.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest
from oracles import (
    labels_of,
    make_mdp,
    oracle_bounded_reach,
    oracle_scheduler_enumeration,
    oracle_unbounded_until,
    random_mdp,
    slow_chain,
    slow_chain_sup_norm_stop,
    subterms,
)

from cpsguard import pmc
from cpsguard.pmc import (
    AndF,
    Ap,
    Finally,
    Globally,
    Next,
    NotF,
    PctlSyntaxError,
    ProbF,
    TrueF,
    UntilF,
    _until_probs,
    check,
    check_all,
    format_pctl,
    parse_pctl,
    reach_prob,
)
from cpsguard.stl import SpecSyntaxError, StlSyntaxError, parse_stl


# ---------------------------------------------------------------------------
# parsing


class TestParse:
    def test_safety_query(self):
        f = parse_pctl('P>0.8 [ F<=10 "rob=-1" ]')
        assert f == ProbF(">", 0.8, Finally(Ap("rob=-1"), 10))

    def test_next_query(self):
        f = parse_pctl('P>0.5 [ X "rob=-1" ]')
        assert f == ProbF(">", 0.5, Next(Ap("rob=-1")))

    def test_probability_out_of_range(self):
        with pytest.raises(PctlSyntaxError, match="outside"):
            parse_pctl('P>1.5 [ X "rob=-1" ]')

    def test_roundtrip(self):
        texts = [
            'P>0.8 [ F<=10 "rob=-1" ]',
            'P>0.5 [ X "rob=-1" ]',
            'P<0.1 [ G "rob=+1" ]',
            'P<=0.9 [ ("rob=+1") U<=3 ("rob=-1") ]',
            'true & !("rob=-1")',
            'P>=0 [ ("rob=+1") U ("rob=-1") ]',
        ]
        for text in texts:
            f = parse_pctl(text)
            assert parse_pctl(format_pctl(f)) == f, text

    def test_trailing_garbage(self):
        with pytest.raises(PctlSyntaxError, match="trailing"):
            parse_pctl("true true")


# bounds that `%g` would round; integers print without a decimal point
ROUNDTRIP_BOUNDS = (0.0, 1.0, 0.5, 0.99999999, 0.1234567, 1e-9, 0.1 + 0.2, 1 / 3)


def random_parsed_state(rng, depth):
    """A random state formula of the kind parse_pctl returns."""
    kind = rng.choice(["true", "ap", "not", "and", "P"] if depth > 0 else ["true", "ap"])
    if kind == "true":
        return TrueF()
    if kind == "ap":
        return Ap(str(rng.choice(["rob=-1", "rob=+1", "X", "a [b] & c", ""])))
    if kind == "not":
        return NotF(random_parsed_state(rng, depth - 1))
    if kind == "and":
        return AndF(random_parsed_state(rng, depth - 1), random_parsed_state(rng, depth - 1))
    bound = float(rng.choice(ROUNDTRIP_BOUNDS)) if rng.random() < 0.7 else float(rng.random())
    k = None if rng.random() < 0.5 else int(rng.integers(0, 10**6))
    path = rng.choice(["X", "G", "F", "U"])
    if path == "X":
        path = Next(random_parsed_state(rng, depth - 1))
    elif path == "G":
        path = Globally(random_parsed_state(rng, depth - 1))
    elif path == "F":
        path = Finally(random_parsed_state(rng, depth - 1), k)
    else:
        path = UntilF(random_parsed_state(rng, depth - 1), random_parsed_state(rng, depth - 1), k)
    return ProbF(str(rng.choice(["<", "<=", ">", ">="])), bound, path)


class TestFrontEnd:
    def test_roundtrip_on_random_formulas(self):
        rng = np.random.default_rng(9)
        for _ in range(3000):
            f = random_parsed_state(rng, int(rng.integers(0, 4)))
            assert parse_pctl(format_pctl(f)) == f, format_pctl(f)

    @pytest.mark.parametrize("bound,text", [(0.99999999, "P>0.99999999"), (0.1234567, "P>0.1234567"),
                                            (1.0, "P>1"), (0.0, "P>0")])
    def test_bounds_print_exactly(self, bound, text):
        assert format_pctl(ProbF(">", bound, Next(TrueF()))) == text + " [ X (true) ]"

    @pytest.mark.parametrize("text,message,position", [
        ("P>0.5 [ F", "expected a state formula, found 'end of input'", 9),
        ('P>0.5 [ F "a" ', "expected ']', found 'end of input'", 14),
        ("true @", "unexpected character '@'", 5),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(PctlSyntaxError) as err:
            parse_pctl(text)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_errors_name_their_language(self):
        pctl_err = pytest.raises(PctlSyntaxError, parse_pctl, "true @").value
        stl_err = pytest.raises(StlSyntaxError, parse_stl, "x >= @").value
        assert isinstance(pctl_err, SpecSyntaxError) and not isinstance(pctl_err, StlSyntaxError)
        assert isinstance(stl_err, SpecSyntaxError) and not isinstance(stl_err, PctlSyntaxError)


# between them, one of each of the nine PCTL node types
EVERY_PCTL_NODE = [node for text in ('P>0.5 [ X !("rob=-1" & true) ]', 'P>0.5 [ G "rob=+1" ]',
                                     'P<=0.5 [ F<=3 "rob=-1" ]', 'P<0.5 [ F "rob=-1" ]', 'P>=0.5 [ true U "rob=-1" ]')
                   for node in subterms(parse_pctl(text))]


class TestNodes:
    def test_the_sample_has_every_node_type(self):
        assert {type(node) for node in EVERY_PCTL_NODE} == {TrueF, Ap, NotF, AndF, ProbF, Next, Globally, Finally,
                                                            UntilF}

    def test_distinct_types_with_equal_fields_differ(self):
        x = Ap("rob=-1")
        for a, b in itertools.combinations([Next(x), Globally(x), NotF(x), Finally(x)], 2):
            assert a != b and hash(a) != hash(b), (a, b)
            assert {a: 1}.get(b) is None

    def test_verdicts_are_cached_per_formula_type(self):
        """check_all keys its cache by the formula: X phi must not be answered with G phi's verdicts."""
        transitions = {(0, 0): {1: 0.3, 0: 0.7}, (1, 0): {1: 1.0}}
        model = make_mdp(2, transitions, labels={1: -1})
        phi = Ap("rob=-1")
        nxt, glob = ProbF(">", 0.5, Next(phi)), ProbF(">", 0.5, Globally(phi))
        first, second = check_all(model, nxt), check_all(model, glob)
        assert second == check_all(make_mdp(2, transitions, labels={1: -1}), glob)
        assert first[(0, 0)].probability == pytest.approx(0.3)
        assert second[(0, 0)].probability == 0.0 and second[(1, 0)].probability == 1.0

    def test_step_bounds_default_to_none(self):
        assert Finally(TrueF()) == Finally(TrueF(), None) == Finally(operand=TrueF(), k=None)
        assert UntilF(TrueF(), Ap("a")).k is None

    def test_fields_cannot_be_set_or_deleted(self):
        for node in EVERY_PCTL_NODE:
            for name in (*type(node).__slots__, "extra"):
                with pytest.raises(AttributeError):
                    setattr(node, name, None)
                with pytest.raises(AttributeError):
                    delattr(node, name)

    def test_copies_and_pickles_are_equal(self):
        for node in EVERY_PCTL_NODE:
            for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
                assert type(twin) is type(node) and twin == node and hash(twin) == hash(node)


# ---------------------------------------------------------------------------
# reachability worked examples


class TestReach:
    def test_target_state_probability_one(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}})
        for k in (0, 1, 5):
            res = reach_prob(model, {(1, 0)}, k=k)
            assert res.probs[(1, 0)] == 1.0

    def test_two_state_chain(self):
        # s -> 0.5 s' + 0.5 s; within 2 steps: 0.5 + 0.5*0.5
        model = make_mdp(2, {(0, 0): {1: 0.5, 0: 0.5}})
        res = reach_prob(model, {(1, 0)}, k=2)
        assert res.probs[(0, 0)] == pytest.approx(0.75, abs=1e-12)

    def test_unreachable_is_zero(self):
        model = make_mdp(3, {(0, 0): {0: 1.0}, (2, 0): {1: 1.0}})
        res = reach_prob(model, {(1, 0)}, k=None)
        assert res.probs[(0, 0)] == 0.0
        assert res.error_bound == 0.0

    def test_dead_end_contributes_zero(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}})
        res = reach_prob(model, {(0, 0)}, k=3)
        assert res.probs[(1, 0)] == 0.0  # state 1 has no outgoing entry

    def test_unknown_target_rejected(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}})
        with pytest.raises(ValueError, match="not in the model"):
            reach_prob(model, {(9, 0)})


class TestOracleEquivalence:
    def test_bounded_reach_matches_recursion(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            model = random_mdp(rng)
            target = {sid for sid, label in labels_of(model).items() if label == -1}
            k = int(rng.integers(0, 6))
            for semantics in ("MAX", "MIN"):
                got = reach_prob(model, target, k=k, semantics=semantics).probs
                want = oracle_bounded_reach(model, target, k, semantics)
                for sid in model.table.order:
                    assert got[sid] == pytest.approx(want[sid], abs=1e-9)

    def test_matches_full_scheduler_enumeration_on_tiny_models(self):
        rng = np.random.default_rng(78)
        done = 0
        while done < 12:
            model = random_mdp(rng, max_states=3, max_actions=2)
            target = {sid for sid, label in labels_of(model).items() if label == -1}
            if not target:
                continue
            k = 3
            for semantics in ("MAX", "MIN"):
                got = reach_prob(model, target, k=k, semantics=semantics).probs
                want = oracle_scheduler_enumeration(model, target, k, semantics, model.initial)
                assert got[model.initial] == pytest.approx(want, abs=1e-9)
            done += 1

    def test_monotone_in_k_and_max_dominates_min(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            model = random_mdp(rng)
            target = {sid for sid, label in labels_of(model).items() if label == -1}
            prev = None
            for k in range(0, 6):
                cur = reach_prob(model, target, k=k).probs
                if prev is not None:
                    for sid in model.table.order:
                        assert cur[sid] >= prev[sid] - 1e-12
                prev = cur
            pmax = reach_prob(model, target, k=4, semantics="MAX").probs
            pmin = reach_prob(model, target, k=4, semantics="MIN").probs
            for sid in model.table.order:
                assert pmax[sid] >= pmin[sid] - 1e-12
                assert -1e-12 <= pmax[sid] <= 1.0 + 1e-12


class TestBoundedFixpoint:
    """A step-bounded query stops once a sweep returns its input bit for
    bit: every later sweep would return it again."""

    def test_stops_at_an_exact_fixpoint(self, monkeypatch):
        calls = []
        sweep = pmc._sweep
        monkeypatch.setattr(pmc, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        rng = np.random.default_rng(81)
        for _ in range(40):
            model = random_mdp(rng)
            target = {sid for sid, label in labels_of(model).items() if label == -1}
            for semantics in ("MAX", "MIN"):
                calls.clear()
                far = reach_prob(model, target, k=100000, semantics=semantics).probs
                far_sweeps = len(calls)
                calls.clear()
                near = reach_prob(model, target, k=1000, semantics=semantics).probs
                assert far == near
                assert far_sweeps == len(calls) < 1000
                want = oracle_unbounded_until(model, set(model.rank), target, semantics)
                for sid in model.table.order:
                    assert far[sid] == pytest.approx(want[sid], abs=1e-12)

    def test_early_stop_keeps_short_horizons_exact(self):
        rng = np.random.default_rng(82)
        for _ in range(40):
            model = random_mdp(rng)
            target = {sid for sid, label in labels_of(model).items() if label == -1}
            for k in range(8):
                for semantics in ("MAX", "MIN"):
                    got = reach_prob(model, target, k=k, semantics=semantics).probs
                    want = oracle_bounded_reach(model, target, k, semantics)
                    for sid in model.table.order:
                        assert got[sid] == pytest.approx(want[sid], abs=1e-12)

    def test_a_chain_runs_every_sweep_until_it_settles(self, monkeypatch):
        calls = []
        sweep = pmc._sweep
        monkeypatch.setattr(pmc, "_sweep", lambda *args: calls.append(1) or sweep(*args))
        model = make_mdp(6, {(i, 0): {i + 1: 1.0} for i in range(5)}, labels={5: -1})
        probs = reach_prob(model, {(5, 0)}, k=100000).probs
        assert probs == {(i, 0): 1.0 for i in range(6)}
        assert len(calls) == 6  # five sweeps move the front, the sixth changes nothing


class TestUnboundedOracle:
    """Unbounded F, G and U against every memoryless deterministic
    scheduler, within 1e-12, and the slow chain where the old 1e-9
    sup-norm stop falls short."""

    TOL = 1e-12

    def models(self, seed, count):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            # pure self-loop choices make end components; random_mdp also
            # leaves some states without any choice
            yield rng, random_mdp(rng, max_states=6, max_actions=3, self_loop=float(rng.choice([0.0, 0.3])))

    def test_until_with_hold_masks(self):
        for rng, model in self.models(90, 800):
            order = model.table.order
            hold = rng.random(len(order)) < 0.8
            target = rng.random(len(order)) < 0.3
            for semantics in ("MAX", "MIN"):
                got, error_bound = _until_probs(model, hold, target, None, semantics)
                want = oracle_unbounded_until(model, {s for s, h in zip(order, hold) if h},
                                              {s for s, t in zip(order, target) if t}, semantics)
                assert np.abs(got - [want[s] for s in order]).max() <= self.TOL
                assert error_bound <= self.TOL

    def test_f_g_u_queries(self):
        queries = {
            'P>0.5 [ F "rob=-1" ]': lambda m, unsafe, sem: oracle_unbounded_until(m, set(m.rank), unsafe, sem),
            'P>0.5 [ "rob=+1" U "rob=-1" ]':
                lambda m, unsafe, sem: oracle_unbounded_until(m, set(m.rank) - unsafe, unsafe, sem),
            # per scheduler P(G safe) = 1 - P(F unsafe), so the extremes swap
            'P>0.5 [ G "rob=+1" ]': lambda m, unsafe, sem: {
                s: 1.0 - p for s, p in oracle_unbounded_until(
                    m, set(m.rank), unsafe, "MIN" if sem == "MAX" else "MAX").items()},
        }
        for _, model in self.models(91, 200):
            unsafe = {sid for sid, label in labels_of(model).items() if label == -1}
            for text, oracle in queries.items():
                for semantics in ("MAX", "MIN"):
                    verdicts = check_all(model, parse_pctl(text), semantics)
                    want = oracle(model, unsafe, semantics)
                    for sid, v in verdicts.items():
                        assert v.probability == pytest.approx(want[sid], abs=self.TOL)
                        assert v.error_bound <= self.TOL

    def test_nested_probability_operators(self):
        """A P under F, U and F<=k checks as the outer operator with the
        inner P's holding set as its target."""
        inners = ('P>0.3 [ X "rob=-1" ]', 'P>=0.5 [ F<=2 "rob=-1" ]', 'P<0.6 [ F "rob=-1" ]')
        outers = {
            "P>=0.5 [ F ({}) ]": lambda m, target, sem: oracle_unbounded_until(m, set(m.rank), target, sem),
            'P>0.4 [ "rob=+1" U ({}) ]': lambda m, target, sem: oracle_unbounded_until(
                m, {sid for sid, label in labels_of(m).items() if label == +1}, target, sem),
            "P>=0.2 [ F<=3 ({}) ]": lambda m, target, sem: oracle_bounded_reach(m, target, 3, sem),
        }
        for _, model in self.models(92, 300):
            for inner in inners:
                for semantics in ("MAX", "MIN"):
                    verdicts = check_all(model, parse_pctl(inner), semantics)
                    target = {sid for sid, v in verdicts.items() if v.holds}
                    for text, oracle in outers.items():
                        want = oracle(model, target, semantics)
                        for sid, v in check_all(model, parse_pctl(text.format(inner)), semantics).items():
                            assert v.probability == pytest.approx(want[sid], abs=self.TOL)

    def test_zero_probability_entry_is_no_edge(self):
        # a model file may list an entry of probability 0; taken as an edge
        # it would make the self-loop the first policy, which never leaves
        model = make_mdp(3, {(0, 0): {0: 1.0, 1: 0.0}, (0, 1): {1: 0.5, 2: 0.5}}, labels={1: -1})
        for semantics, want in (("MAX", 0.5), ("MIN", 0.0)):
            assert reach_prob(model, {(1, 0)}, semantics=semantics).probs[(0, 0)] == want

    @pytest.mark.parametrize("self_loops", [False, True])
    def test_slow_chain(self, self_loops):
        n = 100
        model = slow_chain(n, self_loops)
        exact = np.arange(n + 1) / n
        stopped = slow_chain_sup_norm_stop(n)
        assert np.abs(stopped - exact).max() > 1e-7  # the 1e-9 stop falls short
        for semantics in ("MAX", "MIN"):
            res = reach_prob(model, {(n, 0)}, semantics=semantics)
            want = np.where(np.arange(n + 1) == n, 1.0, 0.0) if semantics == "MIN" and self_loops else exact
            got = np.array([res.probs[(i, 0)] for i in range(n + 1)])
            assert np.abs(got - want).max() <= self.TOL
            assert res.error_bound <= self.TOL

    def test_error_bound_is_zero_when_bounded(self):
        model = make_mdp(2, {(0, 0): {1: 0.5, 0: 0.5}}, labels={1: -1})
        for text in ('P>0.5 [ F<=3 "rob=-1" ]', 'P>0.5 [ X "rob=-1" ]', 'P>0.5 [ "rob=+1" U<=2 "rob=-1" ]'):
            assert check(model, (0, 0), parse_pctl(text)).error_bound == 0.0
        assert check(model, (0, 0), parse_pctl('"rob=-1"')).error_bound is None


# ---------------------------------------------------------------------------
# check()


class TestCheck:
    def test_unsafe_state_hits_immediately(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}}, labels={0: -1})
        v = check(model, (0, 0), parse_pctl('P>0.8 [ F<=10 "rob=-1" ]'))
        assert v.holds and v.probability == 1.0

    def test_avoider_probability_zero(self):
        model = make_mdp(2, {(0, 0): {0: 1.0}}, labels={1: -1})
        v = check(model, (0, 0), parse_pctl('P>0.8 [ F<=10 "rob=-1" ]'))
        assert not v.holds
        assert v.probability == 0.0

    def test_three_state_hand_mdp_matches_oracle(self):
        transitions = {
            (0, 0): {1: 0.6, 2: 0.4},
            (0, 1): {2: 1.0},
            (1, 0): {1: 1.0},
            (2, 0): {0: 0.5, 1: 0.5},
        }
        model = make_mdp(3, transitions, labels={1: -1})
        target = {(1, 0)}
        for k in (1, 2, 4):
            want = oracle_bounded_reach(model, target, k, "MAX")[(0, 0)]
            got = check(model, (0, 0), ProbF(">=", 0.0, Finally(Ap("rob=-1"), k)))
            assert got.probability == pytest.approx(want, abs=1e-12)

    def test_next_semantics(self):
        model = make_mdp(2, {(0, 0): {1: 0.3, 0: 0.7}}, labels={1: -1})
        v = check(model, (0, 0), parse_pctl('P>0.5 [ X "rob=-1" ]'))
        assert v.probability == pytest.approx(0.3)
        assert not v.holds

    def test_globally_duality(self):
        model = make_mdp(2, {(0, 0): {1: 0.5, 0: 0.5}, (1, 0): {1: 1.0}}, labels={1: -1})
        safe = parse_pctl('P>=0.5 [ G "rob=+1" ]')
        v = check(model, (0, 0), safe, semantics="MAX")
        # staying safe forever from 0 has probability 0 under every scheduler
        assert v.probability == pytest.approx(0.0, abs=1e-6)

    def test_unbounded_until(self):
        model = make_mdp(3, {(0, 0): {1: 0.5, 2: 0.5}, (2, 0): {2: 1.0}}, labels={1: -1})
        f = parse_pctl('P>=0 [ ("rob=+1") U ("rob=-1") ]')
        v = check(model, (0, 0), f)
        assert v.probability == pytest.approx(0.5, abs=1e-9)

    def test_unknown_ap_rejected(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}})
        with pytest.raises(ValueError, match="atomic proposition"):
            check(model, (0, 0), parse_pctl('P>0.5 [ X "no-such-label" ]'))

    def test_unknown_state_rejected(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}})
        with pytest.raises(ValueError, match="not in the model"):
            check(model, (9, 0), TrueF())

    def test_check_all_covers_every_state_and_caches(self):
        model = make_mdp(3, {(0, 0): {1: 1.0}, (1, 0): {2: 1.0}}, labels={2: -1})
        f = parse_pctl('P>0.5 [ F<=2 "rob=-1" ]')
        first = check_all(model, f)
        assert set(first) == set(model.rank)
        assert check_all(model, f) is first  # memoized on the model

    def test_check_equals_check_all_without_building_every_verdict(self):
        rng = np.random.default_rng(4)
        texts = ('P>0.5 [ F "rob=-1" ]', 'P<=0.3 [ G "rob=+1" ]', 'P>=0.2 [ F<=3 "rob=-1" ]', '!"rob=-1"')
        for _ in range(20):
            model = random_mdp(rng)
            for text in texts:
                for semantics in ("MAX", "MIN"):
                    formula = parse_pctl(text)
                    verdicts = [check(model, sid, formula, semantics) for sid in model.table.order]
                    assert ("verdicts", formula, semantics) not in model.caches
                    everyone = check_all(model, formula, semantics)
                    assert verdicts == [everyone[sid] for sid in model.table.order]

    def test_non_prob_formula_has_no_probability(self):
        model = make_mdp(2, {(0, 0): {1: 1.0}}, labels={0: -1})
        v = check(model, (0, 0), parse_pctl('"rob=-1"'))
        assert v.holds and v.probability is None
