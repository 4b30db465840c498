import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ, synthesis as syn
from qdistill.circuit import Circuit, Op, Param
from qdistill.gates import GateKind as K, gate_matrix


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def template_unitary(tid, n, layers, seed):
    tpl = circ.build_template(tid, n, layers)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, tpl.n_params)
    return circ.unitary_of(circ.bind(tpl, theta)), tpl, theta


def _distance(student, teacher):
    """The evaluator's distance of a bound student from a teacher unitary."""
    return syn._Evaluator(student, teacher).value(np.empty(0))


def _trace_overlap(student, teacher):
    """Tr(U^dag V) of teacher U and bound student V, as synthesis computes it."""
    return syn._Evaluator(student, teacher).overlap(np.empty(0))


def _bound(tid, n, seed):
    tpl = circ.build_template(tid, n, 1)
    theta = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                tpl.n_params)
    return circ.bind(tpl, theta)


def test_distance_oracles():
    assert _distance(Circuit(1), np.eye(2)) == pytest.approx(0.0)
    assert _distance(Circuit(1, [Op(K.X, (0,))]), np.eye(2)) \
        == pytest.approx(1.0)
    # global phase is invisible
    assert _distance(Circuit(2), 1j * np.eye(4)) == pytest.approx(0.0)


def test_distance_input_validation():
    # the teacher must be a unitary of the student's dimension
    tpl = circ.build_template("c2", 2, 1)
    with pytest.raises(ValueError):
        syn.SynthesisProblem(np.eye(8), tpl)        # dim mismatch
    with pytest.raises(ValueError):
        syn.SynthesisProblem(2 * np.eye(4), tpl)    # not unitary


def test_problem_rejects_dimension_mismatch():
    tpl = circ.build_template("c2", 2, 1)
    for bad in (np.eye(8), np.eye(2)):
        with pytest.raises(ValueError, match="student acts on 2 qubits"):
            syn.SynthesisProblem(bad, tpl)
    with pytest.raises(ValueError, match="student acts on 1 qubits"):
        syn.SynthesisProblem(np.eye(4), Circuit(1))


def test_problem_rejects_non_square_teacher():
    tpl = circ.build_template("c2", 2, 1)
    for bad in (np.zeros((4, 2)), np.zeros(4), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="student acts on 2 qubits"):
            syn.SynthesisProblem(bad, tpl)
    with pytest.raises(ValueError):
        syn.SynthesisProblem(np.zeros((2, 3)), Circuit(1))


def test_problem_accepts_and_rejects_by_unitarity():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    syn.SynthesisProblem(h, Circuit(1))
    for bad in (2 * h, np.full((2, 2), np.nan)):
        with pytest.raises(ValueError, match="not unitary"):
            syn.SynthesisProblem(bad, Circuit(1))


def test_problem_accepts_ten_qubit_teacher():
    # the fixed tolerance covers accumulated rounding at dim 1024
    u, _, _ = template_unitary("c15", 10, 7, 0)
    syn.SynthesisProblem(u, Circuit(10))    # raises if judged not unitary


def test_trace_overlap_of_identity():
    x = Circuit(1, [Op(K.X, (0,))])
    assert _trace_overlap(Circuit(1), np.eye(2)) == pytest.approx(2.0)
    assert _trace_overlap(x, gate_matrix(K.X)) == pytest.approx(2.0)
    assert _trace_overlap(x, np.eye(2)) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_overlap_unitary_invariance(sa, sb):
    # |Tr(U^dag V)| is invariant under a common unitary factor W:
    # the student "V then W" is W V, against the teacher W U
    u = random_unitary(4, sa)
    v, w = _bound("c6", 2, sa + 1), _bound("c6", 2, sb)
    lhs = abs(_trace_overlap(Circuit(2, v.ops + w.ops),
                             circ.unitary_of(w) @ u))
    assert lhs == pytest.approx(abs(_trace_overlap(v, u)), abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_overlap_bounded_by_dimension(seed):
    u = random_unitary(8, seed)
    v = _bound("c6", 3, seed + 1)
    assert abs(_trace_overlap(v, u)) <= 8.0 + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_distance_symmetry_and_range(seed):
    # 1 - |Tr(U^dag V)|/N: in [0, 1], symmetric, blind to a common factor W
    u, v, w = (_bound("c6", 2, seed + k) for k in range(3))
    mu, mv, mw = (circ.unitary_of(c) for c in (u, v, w))
    d = _distance(v, mu)
    assert d == pytest.approx(1.0 - abs(np.vdot(mu, mv)) / 4, abs=1e-12)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(_distance(u, mv), abs=1e-12)
    # V then W is the student W V, against the teacher W U
    assert _distance(Circuit(2, v.ops + w.ops), mw @ mu) \
        == pytest.approx(d, abs=1e-9)


def _check_overlap(ev, student, teacher, state_prep, theta):
    """value and overlap against unitary_of(bind(...))."""
    v = circ.unitary_of(circ.bind(student, theta))
    if state_prep:
        t, norm = np.vdot(teacher[:, 0], v[:, 0]), 1.0
    else:
        t, norm = np.vdot(teacher, v), 1.0 / v.shape[0]
    assert abs(ev.overlap(theta) - t) <= 1e-10
    assert abs(ev.value(theta) - max(0.0, 1.0 - norm * abs(t))) <= 1e-10


def _check_gradient(ev, theta):
    """every adjoint gradient entry against central differences."""
    f, g = ev.values_and_grads(theta[None])[0]
    assert f == ev.value(theta)
    eps = 1e-6
    for j in range(theta.size):
        xp, xm = theta.copy(), theta.copy()
        xp[j] += eps
        xm[j] -= eps
        fd = (ev.value(xp) - ev.value(xm)) / (2 * eps)
        assert g[j] == pytest.approx(fd, abs=1e-7)


def _check_evaluator(student, teacher, state_prep, theta):
    ev = syn._Evaluator(student, teacher, state_prep)
    _check_overlap(ev, student, teacher, state_prep, theta)
    _check_gradient(ev, theta)


@pytest.mark.parametrize("tid,layers", [("c1", 1), ("c2", 2), ("c6", 1),
                                        ("c9", 2), ("c12", 1), ("c15", 3)])
def test_compiled_circuit_matches_reference(tid, layers):
    # the evaluator's compiled step list reproduces unitary_of in both modes
    tpl = circ.build_template(tid, 3, layers)
    rng = np.random.default_rng(11)
    for k in range(5):
        theta = rng.uniform(-math.pi, math.pi, tpl.n_params)
        teacher = random_unitary(8, k)
        for state_prep in (False, True):
            ev = syn._Evaluator(tpl, teacher, state_prep)
            _check_overlap(ev, tpl, teacher, state_prep, theta)


@pytest.mark.parametrize("state_prep", [False, True])
@pytest.mark.parametrize("tid", ["c2", "c6", "c15"])
def test_adjoint_gradient_matches_finite_differences(tid, state_prep):
    u, tpl, _ = template_unitary(tid, 3, 1, seed=2)
    ev = syn._Evaluator(tpl, u, state_prep)
    rng = np.random.default_rng(5)
    x = rng.uniform(-math.pi, math.pi, tpl.n_params)
    _check_gradient(ev, x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["c1", "c2", "c6", "c9", "c12", "c15"]),
       st.integers(2, 4), st.integers(1, 2), st.booleans(),
       st.integers(0, 10_000))
def test_evaluator_matches_reference_on_templates(tid, n, layers, state_prep,
                                                  seed):
    teacher, student, _ = template_unitary(tid, n, layers, seed)
    theta = np.random.default_rng(seed + 1).uniform(-math.pi, math.pi,
                                                    student.n_params)
    _check_evaluator(student, teacher, state_prep, theta)


# CRX/CRY/CRZ both ways round, between plain rotations and literal gates
_TEXT_STUDENT = Circuit(3, [
    Op(K.H, (0,)),
    Op(K.RX, (0,), Param(0)),
    Op(K.RY, (1,), Param(1)),
    Op(K.CRX, (0, 2), Param(2)),
    Op(K.CRY, (2, 1), Param(3)),
    Op(K.CRZ, (1, 0), Param(4)),
    Op(K.CX, (2, 0)),
    Op(K.RZ, (1,), 0.7),
    Op(K.CRX, (2, 0), Param(5)),
    Op(K.CRY, (1, 2), Param(6)),
    Op(K.CRZ, (0, 1), Param(7)),
    Op(K.RZ, (2,), Param(8)),
    Op(K.SX, (1,)),
])


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 10_000))
def test_evaluator_matches_reference_on_text_circuit(state_prep, seed):
    student = _TEXT_STUDENT
    teacher = random_unitary(8, seed)
    theta = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                student.n_params)
    _check_evaluator(student, teacher, state_prep, theta)


def test_grad_lbfgs_distance_never_negative():
    # self-synthesis drives the overlap to |t| = N, where rounding used to
    # report distances like -4.4e-16
    u, tpl, _ = template_unitary("c2", 2, 1, seed=0)
    cfg = syn.AnnealConfig(seed=0, polish_method="grad-lbfgs",
                           anneal_fraction=0.2)
    res = syn.synthesize(syn.SynthesisProblem(u, tpl, budget=2000), cfg)
    assert res.distance >= 0.0
    assert all(d >= 0.0 for _, d in res.improvements)


def test_problem_validation():
    tpl = circ.build_template("c2", 2, 1)
    with pytest.raises(ValueError):
        syn.SynthesisProblem(np.eye(4), tpl, budget=0)


def test_config_validation():
    for method in ("newton", "nelder-mead", "powell", "lbfgs"):
        with pytest.raises(ValueError):
            syn.AnnealConfig(polish_method=method)
    with pytest.raises(ValueError):
        syn.AnnealConfig(anneal_fraction=0.0)


def test_zero_parameter_student():
    # the one evaluation is the anneal's start: nothing anneals or polishes,
    # and a group's chains each equal their solo run
    c = Circuit(1, [Op(K.X, (0,))])
    prob = syn.SynthesisProblem(circ.unitary_of(c), c)
    for method in syn.POLISH_METHODS:
        cfg = syn.AnnealConfig(polish_method=method)
        res = syn.synthesize(prob, cfg)
        assert res.distance == pytest.approx(0.0)
        assert res.evaluations == 1
        assert res.converged
        assert res.improvements == [(1, res.distance)]
        assert res.stats["anneal_evaluations"] == res.stats["value_calls"] == 1
        assert res.stats["value_and_grad_calls"] == 0
        assert res.stats["polish_evaluations"] == 0
        assert res.stats["anneal_steps"] == 0
        assert res.stats["polish_s"] == 0.0
        assert res.stats["anneal_ended_by"] is None
        assert res.stats["anneal_accepted"] == res.stats["polish_restarts"] \
            == res.stats["polish_directions"] == 0
        assert res.stats["anneal_s"] >= 0
        group = syn._synthesize_chains(prob, cfg, (4, 0, 9))
        for chain, seed in zip(group, (4, 0, 9)):
            assert chain.stats["chains"] == 3
            assert chain.stats["polish_s"] == 0.0
            solo = syn.synthesize(prob, dataclasses.replace(cfg, seed=seed))
            assert _chain_record(chain) == _chain_record(solo)


def test_budget_respected():
    u, tpl, _ = template_unitary("c2", 2, 1, seed=0)
    prob = syn.SynthesisProblem(u, tpl, budget=200)
    res = syn.synthesize(prob, syn.AnnealConfig(seed=1))
    assert res.evaluations <= 200 + syn.POLISH_ALLOWANCE + 1


@pytest.mark.parametrize("method", syn.POLISH_METHODS)
@pytest.mark.parametrize("budget,polish_start", [(3000, 2001), (2000, 2000)])
def test_anneal_stops_at_step_cap_or_its_share(monkeypatch, method, budget,
                                               polish_start):
    # one parameter: each temperature step makes 2 visits, so the chain's
    # 1000 steps end at evaluation 1 + 1000 * 2 = 2001, unless the anneal's
    # share of the budget runs out first; each polish chain is made once
    # the anneals have ended
    starts = []
    for name in ("_lbfgs", "_rotation_solve"):
        polish = getattr(syn, name)

        def spy(cost, *args, polish=polish):
            starts.append(cost.nfev)
            return polish(cost, *args)

        monkeypatch.setattr(syn, name, spy)
    student = Circuit(1, [Op(K.RY, (0,), Param(0))])
    problem = syn.SynthesisProblem(gate_matrix(K.RX, 0.7), student,
                                   budget=budget)
    cfg = syn.AnnealConfig(seed=0, polish_method=method, anneal_fraction=1.0)
    res = syn.synthesize(problem, cfg)
    assert starts == [polish_start]
    # the chain ran all 1000 temperature steps either way
    assert res.stats["anneal_steps"] == 1000
    assert res.stats["anneal_evaluations"] == polish_start
    assert res.stats["anneal_ended_by"] == ("step_cap" if budget == 3000
                                            else "anneal_fraction")


def test_small_budget_warns():
    u, tpl, _ = template_unitary("c2", 3, 2, seed=0)
    with pytest.warns(UserWarning):
        syn.synthesize(syn.SynthesisProblem(u, tpl, budget=20),
                       syn.AnnealConfig(seed=0))


@pytest.mark.parametrize("method", syn.POLISH_METHODS)
def test_stats_count_the_work(method):
    u = template_unitary("c15", 3, 2, seed=3)[0]
    prob = syn.SynthesisProblem(u, circ.build_template("c15", 3, 1),
                                budget=400)
    cfg = syn.AnnealConfig(seed=2, polish_method=method, anneal_fraction=0.3)
    res = syn.synthesize(prob, cfg)
    stats = res.stats
    assert stats["anneal_evaluations"] + stats["polish_evaluations"] \
        == res.evaluations
    assert stats["anneal_evaluations"] == 120
    assert stats["anneal_ended_by"] == "anneal_fraction"
    # 1 start plus 2 * 3 visits per temperature step
    assert stats["anneal_steps"] == math.ceil((120 - 1) / 6)
    if method == "grad-lbfgs":
        # every anneal evaluation is a value call, and every polish call a
        # value and gradient charged two evaluations
        assert stats["value_calls"] == stats["anneal_evaluations"]
        assert stats["polish_evaluations"] \
            == 2 * stats["value_and_grad_calls"] > 0
        # every search makes at least one call, and every direction a line
        # search of 1 to 20 calls, but the last may find the budget spent
        searches = stats["polish_restarts"] + 1
        directions = stats["polish_directions"]
        assert stats["value_and_grad_calls"] > stats["polish_restarts"] > 0
        assert searches + directions - 1 <= stats["value_and_grad_calls"] \
            <= searches + 20 * directions
    else:
        # the probes are closed-form: only the anneal and restarts run it
        assert stats["value_and_grad_calls"] == 0
        assert stats["value_calls"] == stats["anneal_evaluations"] \
            + stats["polish_restarts"] < res.evaluations
        assert stats["polish_restarts"] > 0
        assert stats["polish_directions"] == 0
    assert 0 < stats["anneal_accepted"] < stats["anneal_evaluations"]
    assert stats["chains"] == 1
    # each phase's wall time is the one entry a rerun may change, and a
    # chain run beside others changes only it and the chain count
    assert stats.pop("anneal_s") >= 0 and stats.pop("polish_s") >= 0
    again = syn.synthesize(prob, cfg).stats
    assert again.pop("anneal_s") >= 0 and again.pop("polish_s") >= 0
    assert again == stats
    beside = syn._synthesize_chains(prob, cfg, (5, 2, 9))[1].stats
    assert beside.pop("anneal_s") >= 0 and beside.pop("polish_s") >= 0
    assert beside == {**stats, "chains": 3}
    assert set(stats) == {"value_calls", "value_and_grad_calls",
                          "anneal_evaluations", "polish_evaluations",
                          "anneal_steps", "anneal_ended_by",
                          "anneal_accepted", "polish_restarts",
                          "polish_directions", "chains"}


def _quadratic(dim=6, seed=0):
    """A strictly convex quadratic's value-and-gradient, its minimizer, and a
    counter of its calls."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    hess = q @ np.diag(np.linspace(0.5, 5.0, dim)) @ q.T
    x_star = rng.uniform(-1.0, 1.0, dim)
    calls = []

    def fg(x):
        calls.append(x)
        r = x - x_star
        return 0.5 * r @ hess @ r, hess @ r

    return fg, x_star, calls


def _polish_from(x0, fg, calls, max_calls, seed=0):
    """`_lbfgs` from x0, recorded as the best point so far, as one chain
    whose requests fg answers, with a budget of max_calls value-and-gradient
    calls; returns the cost tracker and the restart and direction counts,
    and leaves only the polish's calls in calls."""
    cost = syn._CostTracker(None, 2 * max_calls)
    cost.record(x0, fg(x0)[0], charge=0)
    calls.clear()
    chain = syn._lbfgs(cost, np.random.default_rng(seed))
    return cost, syn._lockstep([chain],
                               lambda thetas: [fg(t) for t in thetas])[0][0]


@pytest.mark.parametrize("seed", range(3))
def test_grad_polish_reaches_a_quadratic_minimizer(seed):
    # twice the calls it needs: the polish stops on its own, once a search
    # from the best point gains nothing and too little budget is left for a
    # random restart
    fg, _, calls = _quadratic(seed=seed)
    cost, _ = _polish_from(np.zeros(6), fg, calls, max_calls=40)
    assert len(calls) <= 20
    assert 0.0 <= cost.best_e <= 1e-10   # the minimum value is 0


def test_grad_polish_stops_at_its_call_cap():
    fg, _, calls = _quadratic(seed=1)
    cost, _ = _polish_from(np.full(6, 3.0), fg, calls, max_calls=7)
    assert 0 < len(calls) <= 7
    assert cost.nfev == 2 * len(calls)


def test_grad_polish_at_a_stationary_point_makes_one_call():
    fg, x_star, calls = _quadratic(seed=2)
    cost, (restarts, directions) = _polish_from(x_star, fg, calls,
                                                max_calls=20)
    assert len(calls) == 1 and cost.nfev == 2 and restarts == directions == 0


def test_grad_polish_is_bit_identical_on_rerun():
    results = []
    for _ in range(2):
        fg, _, calls = _quadratic(seed=3)
        cost, counts = _polish_from(np.full(6, -2.0), fg, calls,
                                    max_calls=40)
        results.append((cost.best_x.tobytes(), cost.best_e, cost.nfev,
                        counts))
    assert results[0] == results[1]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_grad_polish_ends_a_search_at_a_non_finite_gradient(bad):
    # each search makes only its first call and computes no direction,
    # and the restarts stop while the budget still covers them
    calls = []

    def fg(x):
        calls.append(x)
        g = np.zeros(6)
        g[0] = bad
        return 1.0, g

    cost, (restarts, directions) = _polish_from(np.zeros(6), fg, calls,
                                                max_calls=400)
    assert len(calls) == restarts + 1 > 1
    assert directions == 0
    assert cost.nfev == 2 * len(calls) <= cost.max_evals


def _two_loop(pairs, g):
    """The two-loop recursion (Nocedal & Wright, Alg. 7.4) over the kept
    pairs, oldest first, from H0 = (s.y / y.y) I for the newest pair, and
    g / max(1, |g|) without pairs: the oracle for `_InverseHessian`."""
    if not pairs:
        return g / max(1.0, np.linalg.norm(g))
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        alphas.append((s @ q) / (s @ y))
        q -= alphas[-1] * y
    s, y = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - (y @ q) / (s @ y)) * s
    return q


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 25), st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_compact_inverse_hessian_matches_the_two_loop_recursion(count, n,
                                                                seed):
    # each pair's y is A s for its own SPD A (condition up to 1e3) or, for
    # about one pair in four, -A s, which the pair rule rejects; past 10
    # kept pairs the window drops its oldest
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
    h = syn._InverseHessian(n)
    kept = []
    for _ in range(count):
        s = rng.normal(size=n)
        y = basis @ (rng.uniform(1.0, 1e3, n) * (basis.T @ s))
        if rng.uniform() < 0.25:
            y = -y
        if s @ y > 1e-12 * (y @ y):
            kept = (kept + [(s, y)])[-syn._MEMORY:]
        h.update(s, y)
        assert h.k == len(kept)
        g = rng.normal(size=n)
        want = _two_loop(kept, g)
        assert np.linalg.norm(h.times(g) - want) \
            <= 1e-12 * np.linalg.norm(want)


def test_one_cos_call_per_point(monkeypatch):
    # every fused step's factors come from one np.cos call per evaluation,
    # value or value and gradient, in full mode
    u = template_unitary("c15", 4, 7, seed=0)[0]
    ev = syn._Evaluator(circ.build_template("c15", 4, 4), u)
    theta = np.random.default_rng(0).uniform(-math.pi, math.pi, 16)
    calls = []
    cos = np.cos

    def counted(*args, **kwargs):
        calls.append(1)
        return cos(*args, **kwargs)

    monkeypatch.setattr(np, "cos", counted)
    ev.values_and_grads(theta[None])
    assert len(calls) == 1
    ev.value(theta)
    assert len(calls) == 2


def test_synthesis_deterministic_per_seed():
    u, tpl, _ = template_unitary("c2", 2, 1, seed=3)
    prob = syn.SynthesisProblem(u, tpl, budget=400)
    a = syn.synthesize(prob, syn.AnnealConfig(seed=7))
    b = syn.synthesize(prob, syn.AnnealConfig(seed=7))
    assert a.distance == b.distance
    assert np.array_equal(a.theta_star, b.theta_star)
    assert a.evaluations == b.evaluations


def test_self_synthesis_recovers_target():
    # same template and layer count: the optimum is an exact match
    u, tpl, _ = template_unitary("c2", 2, 1, seed=42)
    prob = syn.SynthesisProblem(u, tpl, budget=1000)
    best = min((syn.synthesize(prob, syn.AnnealConfig(seed=s))
                for s in range(3)), key=lambda r: r.distance)
    assert best.distance <= 1e-3
    assert best.converged


@pytest.mark.parametrize("method", ["grad-lbfgs", "rotation-solve"])
def test_polish_methods_run_and_improve(method):
    u, tpl, _ = template_unitary("c2", 2, 1, seed=9)
    prob = syn.SynthesisProblem(u, tpl, budget=800)
    cfg = syn.AnnealConfig(seed=0, polish_method=method, anneal_fraction=0.2)
    res = syn.synthesize(prob, cfg)
    assert res.distance <= 0.05


def test_state_prep_mode_easier_than_full_unitary():
    u, _, _ = template_unitary("c2", 3, 6, seed=1)
    student = circ.build_template("c2", 3, 2)
    cfg = syn.AnnealConfig(seed=0, polish_method="grad-lbfgs",
                           anneal_fraction=0.1)
    full = syn.synthesize(syn.SynthesisProblem(u, student, budget=2000), cfg)
    state = syn.synthesize(
        syn.SynthesisProblem(u, student, budget=2000, state_prep=True), cfg)
    assert state.distance <= full.distance + 1e-9
    # trace_of_best in state mode is the overlap amplitude
    assert abs(state.trace_of_best) == pytest.approx(1.0 - state.distance,
                                                     abs=1e-9)


def test_improvements_are_monotone():
    u, tpl, _ = template_unitary("c15", 2, 2, seed=4)
    res = syn.synthesize(syn.SynthesisProblem(u, tpl, budget=500),
                         syn.AnnealConfig(seed=2))
    dists = [d for _, d in res.improvements]
    assert dists == sorted(dists, reverse=True)
    evs = [e for e, _ in res.improvements]
    assert evs == sorted(evs)


def _chain_record(result):
    """Everything a chain's result holds but the group's timings and its
    chain count."""
    stats = {k: v for k, v in result.stats.items()
             if k not in ("anneal_s", "polish_s", "chains")}
    return (result.theta_star.tobytes(), result.distance, result.evaluations,
            result.trace_of_best, result.improvements, result.seed, stats)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(circ.TEMPLATES)), st.integers(2, 4),
       st.integers(1, 2), st.integers(60, 400),
       st.sampled_from(syn.POLISH_METHODS), st.floats(0.05, 1.0),
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=4,
                unique=True),
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_lockstep_chains_equal_their_one_chain_runs(tid, n, layers, budget,
                                                    method, fraction, seeds,
                                                    complex_teacher,
                                                    state_prep, seed):
    # the chains of one call share every stacked evaluator call, yet each
    # draws, stops, counts and ends as it does alone; a complex teacher
    # runs a real student in complex arithmetic, and state prep runs each
    # chain's one column on its own
    teacher = random_unitary(2 ** n, seed) if complex_teacher \
        else template_unitary("c15", n, 2, seed)[0]
    problem = syn.SynthesisProblem(teacher, circ.build_template(tid, n, layers),
                                   budget=budget, state_prep=state_prep)
    config = syn.AnnealConfig(polish_method=method, anneal_fraction=fraction)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # small budgets
        together = syn._synthesize_chains(problem, config, seeds)
        alone = [syn.synthesize(problem, dataclasses.replace(config, seed=s))
                 for s in seeds]
    for chain, solo in zip(together, alone):
        assert chain.stats["chains"] == len(seeds)
        assert solo.stats["chains"] == 1
        assert _chain_record(chain) == _chain_record(solo)


def _small_teacher():
    from qdistill import data, encoding, qnn
    ds = data.load_iris(seed=0)
    scheme = encoding.EncodingScheme("1:1", 4)
    scaler = encoding.fit_scaler(ds.train_features)
    return qnn.init_model("c2", 1, scheme, seed=42, scaler=scaler)


def test_distill_picks_best_seed_and_breaks_ties(monkeypatch):
    teacher = _small_teacher()
    cfg = syn.AnnealConfig(seed=0)
    _, result = syn.distill(teacher, ("c2", 1), cfg, budget=300,
                            seeds=[0, 1, 2])
    target = circ.unitary_of(circ.bind(teacher.pqc, teacher.theta))
    prob = syn.SynthesisProblem(target, circ.build_template("c2", 4, 1),
                                budget=300)
    singles = [syn.synthesize(prob, dataclasses.replace(cfg, seed=s))
               for s in [0, 1, 2]]
    lowest = min(r.distance for r in singles)
    best = min((r for r in singles if r.distance <= lowest + 1e-12),
               key=lambda r: r.seed)
    assert result.distance == best.distance
    assert result.seed == best.seed
    assert np.array_equal(result.theta_star, best.theta_star)
    # no seeds: one chain at the config's seed
    _, result = syn.distill(teacher, ("c2", 1), cfg, budget=300)
    assert (result.distance, result.seed) == (singles[0].distance, 0)
    with pytest.raises(ValueError):
        syn.distill(teacher, ("c2", 1), cfg, budget=300, seeds=[])

    # equal distances: the lower seed wins, whatever the seed order
    def tied(problem, config, seeds):
        return [syn.SynthesisResult(np.zeros(problem.student.n_params), 0.5,
                                    1, 0j, False, seed=seed)
                for seed in seeds]

    monkeypatch.setattr(syn, "_synthesize_chains", tied)
    _, result = syn.distill(teacher, ("c2", 1), cfg, seeds=[2, 0, 1])
    assert result.seed == 0


def test_distill_treats_rounding_level_gaps_as_ties(monkeypatch):
    # two chains that reached one optimum, 3e-16 apart: the lower seed wins
    distance = {7: 0.6325258357864334, 8: 0.6325258357864331, 9: 0.7}

    def chains(problem, config, seeds):
        return [syn.SynthesisResult(np.zeros(problem.student.n_params),
                                    distance[seed], 1, 0j, False, seed=seed)
                for seed in seeds]

    monkeypatch.setattr(syn, "_synthesize_chains", chains)
    _, result = syn.distill(_small_teacher(), ("c2", 1), seeds=[9, 8, 7])
    assert (result.seed, result.distance) == (7, distance[7])


def test_distill_returns_student_and_result():
    teacher = _small_teacher()
    student, result = syn.distill(teacher, ("c2", 1), budget=500,
                                  seeds=[0, 1])
    assert student.template_id == "c2"
    assert student.layers == 1
    assert isinstance(result, syn.SynthesisResult)
    assert np.array_equal(student.theta, result.theta_star)
    assert student.seed == result.seed
    assert np.array_equal(student.W, teacher.W)
    assert result.distance <= 0.05


_TEXT_ROTATIONS = ((K.RX, (0,)), (K.RY, (1,)), (K.CRY, (0, 2)),
                   (K.CRZ, (1, 0)), (K.CRX, (2, 1)), (K.RZ, (2,)))


def _rotation_student(*order):
    """Six rotations, plain and controlled, around literal gates: the k-th
    in op order is ``_TEXT_ROTATIONS[order[k]]`` and takes slot k."""
    r = [Op(*_TEXT_ROTATIONS[i], Param(k)) for k, i in enumerate(order)]
    return Circuit(3, [Op(K.H, (0,)), *r[:3], Op(K.CX, (2, 0)), *r[3:],
                       Op(K.SX, (1,))])


_ROTATION_STUDENTS = {
    "c2": circ.build_template("c2", 3, 1),
    "c6": circ.build_template("c6", 3, 1),
    "text": _rotation_student(*range(6)),
    # the same rotations in another op order
    "text-shuffled": _rotation_student(1, 3, 5, 0, 4, 2),
}


def _check_charges(monkeypatch):
    """Check every value a tracker is charged against a full circuit run."""
    seen = {"charged": 0, "after_budget": 0}
    charge = syn._CostTracker.charge

    def checked(self, x, e):
        assert abs(self._fun(x) - e) <= 1e-13
        seen["charged"] += 1
        seen["after_budget"] += self.exhausted
        return charge(self, x, e)

    monkeypatch.setattr(syn._CostTracker, "charge", checked)
    return seen


@pytest.mark.parametrize("state_prep", [False, True])
@pytest.mark.parametrize("student", sorted(_ROTATION_STUDENTS))
def test_rotation_solve_probes_match_full_runs(monkeypatch, student,
                                              state_prep):
    seen = _check_charges(monkeypatch)
    problem = syn.SynthesisProblem(random_unitary(8, 3),
                                   _ROTATION_STUDENTS[student], budget=300,
                                   state_prep=state_prep)
    cfg = syn.AnnealConfig(seed=1, polish_method="rotation-solve",
                           anneal_fraction=0.2)
    res = syn.synthesize(problem, cfg)
    assert seen["charged"] >= res.evaluations > 300 * 0.2


def test_rotation_solve_on_a_real_full_mode_student(monkeypatch):
    # c15 against a c15 teacher evaluates in float64; rotation-solve walks
    # the fused RY runs' members, in complex arithmetic
    seen = _check_charges(monkeypatch)
    teacher, _, _ = template_unitary("c15", 3, 2, 5)
    problem = syn.SynthesisProblem(teacher, circ.build_template("c15", 3, 1),
                                   budget=300)
    assert syn._Evaluator(problem.student, teacher).start.dtype == np.float64
    cfg = syn.AnnealConfig(seed=1, polish_method="rotation-solve",
                           anneal_fraction=0.2)
    res = syn.synthesize(problem, cfg)
    assert seen["charged"] >= res.evaluations > 300 * 0.2


@pytest.mark.parametrize("seed", [2, 4])
def test_rotation_solve_skips_flat_coordinate(monkeypatch, seed):
    # slot 0 is RX right after H on |0>: |+> is an X eigenstate, so the
    # overlap does not depend on it, though rounding moves its probes
    solved = []
    best_angle = syn._best_angle

    def spy(*args):
        solved.append(best_angle(*args))
        return solved[-1]

    monkeypatch.setattr(syn, "_best_angle", spy)
    problem = syn.SynthesisProblem(random_unitary(8, 3),
                                   _ROTATION_STUDENTS["text"], budget=600,
                                   state_prep=True)
    cfg = syn.AnnealConfig(seed=seed, polish_method="rotation-solve",
                           anneal_fraction=0.2)
    syn.synthesize(problem, cfg)
    # each pass visits all six slots in op order, so slot 0 is every sixth
    # call; a flat coordinate gets no maximizer, hence no confirm evaluation
    assert len(solved) > 6
    assert all(a is None for a in solved[::6])
    assert all(a is not None for a in solved[1::6])


@pytest.mark.filterwarnings("ignore:budget")
@pytest.mark.parametrize("student", ["c6", "text-shuffled"])
def test_rotation_solve_budget_runs_out_mid_coordinate(monkeypatch, student):
    seen = _check_charges(monkeypatch)
    problem = syn.SynthesisProblem(random_unitary(8, 4),
                                   _ROTATION_STUDENTS[student], budget=5)
    cfg = syn.AnnealConfig(seed=0, polish_method="rotation-solve")
    res = syn.synthesize(problem, cfg)
    # probes made after the budget ran out are returned but not charged
    assert seen["after_budget"] > 0
    assert res.evaluations <= 5 + syn.POLISH_ALLOWANCE


def test_rotation_solve_searches_a_controlled_rotations_whole_period():
    # CRX has period 4pi: its maximizer at 2pi - 0.3 lies outside [-pi, pi]
    target = circ.unitary_of(Circuit(2, [Op(K.CRX, (0, 1),
                                            2 * math.pi - 0.3)]))
    problem = syn.SynthesisProblem(
        target, Circuit(2, [Op(K.CRX, (0, 1), Param(0))]), budget=200)
    cfg = syn.AnnealConfig(seed=0, polish_method="rotation-solve")
    assert syn.synthesize(problem, cfg).distance <= 1e-12


def _above_rounding_floor(improvements):
    """The improvement trace without steps smaller than 1e-12."""
    kept = []
    for evaluation, d in improvements:
        if not kept or d < kept[-1][1] - 1e-12:
            kept.append((evaluation, d))
    return kept


# fidelity-sweep instances at seed 0 (c2x6 -> c2x4, budget 1000, state prep,
# anneal fraction 0.05), as computed when every probe ran the whole circuit:
# (n, instance, evaluations, fidelity, improvements above the rounding floor:
# count, digest of their evaluation indices, sum of their distances)
_SWEEP_SEED0 = [
    (2, 0, 1200, 1.0, 62, "9d2d82fc4dc97c26", 2.143855604680506),
    (2, 1, 1200, 1.0, 78, "07fbe1f801300f2a", 1.9759435507847527),
    (3, 0, 1200, 0.9999681840760909, 391, "b23379332f104fca",
     7.608465625697669),
    (3, 1, 1200, 0.9999366688910077, 386, "b6ffdc352325005b",
     4.576901936551522),
    (4, 0, 1200, 0.9531598257014433, 389, "f85327d1cb5c3b6d",
     28.953538063090242),
    (4, 1, 1200, 0.9436912794597561, 387, "9cb90f4579223d3e",
     31.112996560757015),
]


@pytest.mark.parametrize("n,inst,evaluations,fidelity,count,digest,total",
                         _SWEEP_SEED0)
def test_rotation_solve_sweep_matches_full_run_probes(n, inst, evaluations,
                                                      fidelity, count, digest,
                                                      total):
    import hashlib

    teacher = circ.build_template("c2", n, 6)
    rng = np.random.default_rng(1000 * n + inst)
    target = circ.unitary_of(circ.bind(
        teacher, rng.uniform(-math.pi, math.pi, teacher.n_params)))
    problem = syn.SynthesisProblem(target, circ.build_template("c2", n, 4),
                                   budget=1000, state_prep=True)
    cfg = syn.AnnealConfig(seed=0, polish_method="rotation-solve",
                           anneal_fraction=0.05)
    res = syn.synthesize(problem, cfg)
    assert res.evaluations == evaluations
    assert abs(min(1.0, abs(res.trace_of_best) ** 2) - fidelity) <= 1e-12
    kept = _above_rounding_floor(res.improvements)
    assert len(kept) == count
    indices = ",".join(str(e) for e, _ in kept).encode()
    assert hashlib.sha256(indices).hexdigest()[:16] == digest
    assert abs(sum(d for _, d in kept) - total) <= count * 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 10_000))
def test_real_student_against_real_teacher_runs_in_float64(n, t_layers,
                                                           s_layers, seed):
    # c15 is RY and CX: every step matrix is real, and so is a c15 teacher
    teacher, _, _ = template_unitary("c15", n, t_layers, seed)
    student = circ.build_template("c15", n, s_layers)
    ev = syn._Evaluator(student, teacher)
    theta = np.random.default_rng(seed + 1).uniform(-math.pi, math.pi,
                                                    student.n_params)
    tape = ev.steps.run(ev.start, theta, keep=True)
    assert ev.target.dtype == np.float64
    assert all(b.dtype == np.float64 for b in tape.blocks)
    assert tape.adjoints.dtype == np.float64
    v = circ.unitary_of(circ.bind(student, theta))
    want = max(0.0, 1.0 - abs(np.trace(teacher.conj().T @ v)) / 2 ** n)
    assert abs(ev.value(theta) - want) <= 1e-13
    assert ev.values_and_grads(theta[None])[0][0] == ev.value(theta)
    # a complex teacher, a complex student or state prep's one column
    # keeps complex arithmetic
    assert syn._Evaluator(student, 1j * teacher).start.dtype == complex
    assert syn._Evaluator(student, teacher, True).start.dtype == complex
    assert syn._Evaluator(circ.build_template("c2", n, 1),
                          teacher).start.dtype == complex
