import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ, synthesis as syn
from qdistill.circuit import Circuit, Op
from qdistill.gates import GateKind as K


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


def test_distance_oracles():
    assert syn.hs_distance(np.eye(2), np.eye(2)) == pytest.approx(0.0)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert syn.hs_distance(np.eye(2), x) == pytest.approx(1.0)
    # global phase is invisible
    assert syn.hs_distance(np.eye(4), 1j * np.eye(4)) == pytest.approx(0.0)


def test_distance_input_validation():
    with pytest.raises(ValueError):
        syn.hs_distance(np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        syn.hs_distance(2 * np.eye(2), np.eye(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_distance_symmetry_and_range(seed):
    u = random_unitary(4, seed)
    v = random_unitary(4, seed + 1)
    d = syn.hs_distance(u, v)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert d == pytest.approx(syn.hs_distance(v, u), abs=1e-12)
    w = random_unitary(4, seed + 2)
    assert syn.hs_distance(w @ u, w @ v) == pytest.approx(d, abs=1e-9)


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
    f, g = ev.value_and_grad(theta)
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


# shared (@0, @2), scaled (*), offset (+/-) slots; CRX/CRY/CRZ both ways round
_TEXT_STUDENT = """\
qubits 3
H 0
RX 0 @0
RY 1 @1*-0.5
CRX 0,2 @2+0.3
CRY 2,1 @0*2.0
CRZ 1,0 @3-1.2
CX 2,0
RZ 1 0.7
CRX 2,0 @1
CRY 1,2 @4
CRZ 0,1 @2*0.75
RZ 2 @4
SX 1
"""


@settings(max_examples=30, deadline=None)
@given(st.booleans(), st.integers(0, 10_000))
def test_evaluator_matches_reference_on_text_circuit(state_prep, seed):
    student = circ.from_text(_TEXT_STUDENT)
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
        syn.SynthesisProblem(np.eye(8), tpl)        # dim mismatch
    with pytest.raises(ValueError):
        syn.SynthesisProblem(2 * np.eye(4), tpl)    # not unitary
    with pytest.raises(ValueError):
        syn.SynthesisProblem(np.eye(4), tpl, budget=0)


def test_config_validation():
    for method in ("newton", "nelder-mead", "powell", "lbfgs"):
        with pytest.raises(ValueError):
            syn.AnnealConfig(polish_method=method)
    with pytest.raises(ValueError):
        syn.AnnealConfig(anneal_fraction=0.0)


def test_rotation_solve_rejects_shared_slots_before_annealing(monkeypatch):
    # @0 drives two gates, once scaled: no closed-form coordinate update
    student = circ.from_text("qubits 2\nRX 0 @0\nCX 0,1\nRY 1 @0*2.0\n")
    u = random_unitary(4, 0)

    def no_anneal(*args):
        raise AssertionError("annealed before rejecting the student")

    monkeypatch.setattr(syn, "_anneal", no_anneal)
    cfg = syn.AnnealConfig(polish_method="rotation-solve")
    with pytest.raises(ValueError, match="exactly one unscaled rotation"):
        syn.synthesize(syn.SynthesisProblem(u, student, budget=20000), cfg)


def test_zero_parameter_student():
    c = Circuit(1, [Op(K.X, (0,))])
    u = circ.unitary_of(c)
    res = syn.synthesize(syn.SynthesisProblem(u, c))
    assert res.distance == pytest.approx(0.0)
    assert res.evaluations == 1
    assert res.converged


def test_budget_respected():
    u, tpl, _ = template_unitary("c2", 2, 1, seed=0)
    prob = syn.SynthesisProblem(u, tpl, budget=200)
    res = syn.synthesize(prob, syn.AnnealConfig(seed=1))
    assert res.evaluations <= 200 + syn.POLISH_ALLOWANCE + 1


def test_small_budget_warns():
    u, tpl, _ = template_unitary("c2", 3, 2, seed=0)
    with pytest.warns(UserWarning):
        syn.synthesize(syn.SynthesisProblem(u, tpl, budget=20),
                       syn.AnnealConfig(seed=0))


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


def test_synthesize_multi_picks_best_and_breaks_ties():
    u, tpl, _ = template_unitary("c2", 2, 1, seed=6)
    prob = syn.SynthesisProblem(u, tpl, budget=300)
    cfg = syn.AnnealConfig(seed=0)
    res = syn.synthesize_multi(prob, cfg, seeds=[0, 1, 2])
    singles = [syn.synthesize(prob, dataclasses.replace(cfg, seed=s))
               for s in [0, 1, 2]]
    best = min(singles, key=lambda r: (r.distance, r.seed))
    assert res.distance == best.distance
    assert res.seed == best.seed
    with pytest.raises(ValueError):
        syn.synthesize_multi(prob, cfg, seeds=[])


def test_distill_returns_student_and_record():
    from qdistill import data, encoding, qnn
    ds = data.load_iris(seed=0)
    scheme = encoding.EncodingScheme("1:1", 4)
    scaler = encoding.fit_scaler(ds.train_features)
    teacher = qnn.init_model("c2", 1, scheme, seed=42, scaler=scaler)
    student, record = syn.distill(teacher, ("c2", 1), budget=500,
                                  seeds=[0, 1])
    assert student.template_id == "c2"
    assert student.layers == 1
    assert record["teacher_template"] == "c2"
    assert record["budget"] == 500
    assert np.array_equal(student.W, teacher.W)
    assert record["distance"] <= 0.05


@pytest.mark.parametrize("method", syn.POLISH_METHODS)
def test_synthesize_multi_process_pool_matches_serial(method):
    u, tpl, _ = template_unitary("c2", 2, 1, seed=6)
    prob = syn.SynthesisProblem(u, tpl, budget=300)
    cfg = syn.AnnealConfig(polish_method=method)
    serial = syn.synthesize_multi(prob, cfg, seeds=[0, 1, 2])
    pooled = syn.synthesize_multi(prob, cfg, seeds=[0, 1, 2], jobs=2)
    assert np.array_equal(pooled.theta_star, serial.theta_star)
    assert pooled.distance == serial.distance
    assert pooled.evaluations == serial.evaluations
    assert pooled.improvements == serial.improvements
    assert pooled.seed == serial.seed


# every slot drives one rotation: +-1 scales, offsets, plain and controlled
_ROTATION_TEXT = """\
qubits 3
H 0
RX 0 @{0}*-1
RY 1 @{1}+0.3
CRY 0,2 @{2}*-1-0.4
CX 2,0
CRZ 1,0 @{3}+1.1
CRX 2,1 @{4}
RZ 2 @{5}*-1
SX 1
"""
_ROTATION_STUDENTS = {
    "c2": circ.build_template("c2", 3, 1),
    "c6": circ.build_template("c6", 3, 1),
    "text": circ.from_text(_ROTATION_TEXT.format(*range(6))),
    # slots numbered out of op order: visited in op order all the same
    "text-shuffled": circ.from_text(_ROTATION_TEXT.format(3, 0, 5, 1, 4, 2)),
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
