"""Approximate unitary synthesis by generalized simulated annealing.

The distillation core: a student circuit's parameters are optimized so that
its unitary mimics a frozen teacher unitary under the Hilbert-Schmidt
distance d = 1 - |Tr(U^dag V)| / N.  The modulus makes the cost real and
invariant under global phase; d = 0 exactly when the student matches the
teacher up to phase.  In state-prep mode only the action on |0...0> counts,
d = 1 - |<psi|V|0...0>| with psi the teacher's first column.  Reported
distances are clamped at 0 against rounding, so they stay in [0, 1].

One evaluator per ``synthesize`` call computes the distance, the trace
overlap and the exact reverse-mode gradient from the student's compiled step
list (`circuit.StepList`), the same one that trains and fine-tunes the
classifier in `qnn`.

Every angle is searched in [-pi, pi].  The global optimizer is one
from-scratch generalized simulated annealing (GSA) chain from a uniform
random start: heavy-tailed Tsallis visiting moves, the generalized
Metropolis acceptance rule and a power-law temperature schedule, for at
most 1000 temperature steps of 2 * dim visits each, with no restarts.  It
ends sooner once the anneal's share of the budget is spent.  Its constants
(initial temperature 5230.0, visit 2.62, accept -5.0) are fixed.  A local
polish then runs from the best point, one of `POLISH_METHODS`: grad-lbfgs
(default; L-BFGS-B on the exact gradient, charged two evaluations per call)
or rotation-solve (closed-form coordinate updates, visited in step order,
where one charged evaluation is one closed-form probe from cached adjoint
environments rather than a circuit run).  Its evaluations are capped so the
total stays within budget + 200.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, bind, build_template, unitary_of

TAIL_LIMIT = 1e8
_MIN_VISIT_BOUND = 1e-10
_SPAN = 2.0 * math.pi     # every angle is searched in [-pi, pi]
POLISH_ALLOWANCE = 200
POLISH_METHODS = ("grad-lbfgs", "rotation-solve")
CONVERGE_THRESHOLD = 0.05
# distill's chains within this of the best distance tie, and the lowest seed
# wins: chains that reach one optimum end about 1e-16 apart, as rounding falls
DISTANCE_TIE = 1e-12
# GSA schedule and acceptance: the stock dual-annealing defaults
INITIAL_TEMP = 5230.0
VISIT = 2.62
ACCEPT = -5.0
# rotation-solve's search grid for the controlled-rotation maximizer
_GRID = np.linspace(-math.pi, math.pi, 721)
# Unitarity check tolerance.  Bound random c2x6, c6x2 and c15x7 templates
# at n = 6, 8 and 10 gave max|U^dag U - I| <= 1.33e-15, so it needs no
# scaling with the dimension up to 2^10 (2^11 and 2^12 are unmeasured).
UNITARY_TOL = 1e-10


@dataclass
class SynthesisProblem:
    teacher_unitary: np.ndarray
    student: Circuit
    budget: int = 1000
    state_prep: bool = False    # match only the action on |0...0>, not all of U

    def __post_init__(self):
        self.teacher_unitary = u = np.asarray(self.teacher_unitary, complex)
        dim = 2 ** self.student.n_qubits
        if u.shape != (dim, dim):
            raise ValueError(
                f"teacher is {u.shape}, student acts on "
                f"{self.student.n_qubits} qubits (dim {dim})")
        if not np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= UNITARY_TOL:
            raise ValueError("teacher matrix is not unitary")
        if self.budget < 1:
            raise ValueError("budget must be positive")


@dataclass
class AnnealConfig:
    seed: int = 0
    polish_method: str = "grad-lbfgs"
    # cap on the anneal's share of the budget; the chain may end sooner,
    # at its step cap, and the polish gets the rest
    anneal_fraction: float = 0.6

    def __post_init__(self):
        if self.polish_method.lower() not in POLISH_METHODS:
            raise ValueError("polish_method must be one of "
                             + ", ".join(POLISH_METHODS))
        if not 0 < self.anneal_fraction <= 1:
            raise ValueError("anneal_fraction must lie in (0, 1]")


@dataclass
class SynthesisResult:
    theta_star: np.ndarray
    distance: float
    evaluations: int
    trace_of_best: complex
    converged: bool
    seed: int = 0
    improvements: list = field(default_factory=list)  # (evaluation, distance)


class _Evaluator:
    """Distance, trace overlap and exact gradient of a student vs. the teacher.

    The student runs as its compiled step list (`Circuit.steps`) on a block X
    that starts as the identity, or as |0...0> in state-prep mode, where X is
    (dim, 1).  The overlap is t = <target, X>: Tr(U^dag V) in full mode,
    <psi|V|0...0> in state-prep mode.  The distance is 1 - |t|/dim (full) or
    1 - |t| (state prep), clamped at 0 against rounding.

    The gradient comes from one forward and one reverse sweep of the step
    list, started from lam = target: dt/da = e/2 for each slot's term e
    (`StepList.gradient`).
    Full mode computes in float64 when the target and every step are real.
    """

    def __init__(self, student: Circuit, teacher_unitary, state_prep=False):
        dim = 2 ** student.n_qubits
        cols = 1 if state_prep else dim
        self.target = np.ascontiguousarray(teacher_unitary[:, :cols])
        if student.steps.real and not (state_prep or self.target.imag.any()):
            self.target = self.target.real.copy()
        self.start = np.eye(dim, cols, dtype=self.target.dtype)
        self.norm = 1.0 if state_prep else 1.0 / dim
        self.n_params = student.n_params
        self.steps = student.steps

    def distance(self, t):
        return max(0.0, 1.0 - self.norm * abs(t))

    def overlap(self, theta) -> complex:
        return complex(np.vdot(self.target, self.steps.run(self.start, theta)))

    def value(self, theta) -> float:
        return self.distance(self.overlap(theta))

    def value_and_grad(self, theta):
        blocks = self.steps.run(self.start, theta, keep=True)
        t = np.vdot(self.target, blocks[-1])
        mag = abs(t)
        if mag < 1e-300:
            return 1.0, np.zeros(self.n_params)
        w = -0.5 * self.norm * np.conj(t) / mag   # d distance/da = Re(w e)
        e = self.steps.gradient(self.target, blocks, theta)
        # Re(w e) term by term: numpy's vectorized complex product, as in
        # (w * e).real, rounds differently from the scalar one
        grad = w.real * e.real - w.imag * e.imag
        return self.distance(t), grad


class _CostTracker:
    """Counts evaluations and keeps the best-ever point and improvement trace."""

    def __init__(self, fun, max_evals):
        self._fun = fun
        self.max_evals = max_evals
        self.nfev = 0
        self.best_x = None
        self.best_e = math.inf
        self.improvements = []

    @property
    def exhausted(self):
        return self.nfev >= self.max_evals

    def record(self, x, e, charge=1):
        self.nfev += charge
        if e < self.best_e:
            self.best_e = e
            self.best_x = np.array(x, float, copy=True)
            self.improvements.append((self.nfev, float(e)))

    def __call__(self, x):
        if self.exhausted:
            # budget exhausted: report a flat landscape so callers terminate
            return self.best_e
        return self.charge(x, self._fun(x))

    def charge(self, x, e):
        """`__call__` for a value computed elsewhere: one evaluation, or,
        once the budget is spent, no charge and the best value so far."""
        if self.exhausted:
            return self.best_e
        self.record(x, e)
        return e


def _wrap(values):
    """Wrap angles back into [-pi, pi), nudged off the lower edge."""
    b = np.fmod(values + math.pi, _SPAN) + _SPAN
    wrapped = np.fmod(b, _SPAN) - math.pi
    bump = np.fabs(wrapped + math.pi) < _MIN_VISIT_BOUND
    return np.where(bump, wrapped + _MIN_VISIT_BOUND, wrapped)


# Temperature-free factors of the Tsallis visiting distribution at VISIT
_FACTOR4_P = (math.sqrt(math.pi)
              * math.exp((4.0 - VISIT) * math.log(VISIT - 1.0))
              / (math.exp((2.0 - VISIT) * math.log(2.0) / (VISIT - 1.0))
                 * (3.0 - VISIT)))
_FACTOR5 = 1.0 / (VISIT - 1.0) - 0.5
_FACTOR6 = (math.pi * (1.0 - _FACTOR5) / math.sin(math.pi * (1.0 - _FACTOR5))
            / math.exp(math.lgamma(2.0 - _FACTOR5)))


def _visit(rng, x, step, temperature):
    """GSA's heavy-tailed Tsallis move from x: steps below x.size move every
    coordinate at once, step x.size + i only coordinate i."""
    dim = x.size
    size = dim if step < dim else 1
    g = rng.normal(size=size)
    y = rng.normal(size=size)
    factor4 = _FACTOR4_P * math.exp(math.log(temperature) / (VISIT - 1.0))
    g *= math.exp(-(VISIT - 1.0) * math.log(_FACTOR6 / factor4)
                  / (3.0 - VISIT))
    visits = g / np.exp((VISIT - 1.0) * np.log(np.fabs(y)) / (3.0 - VISIT))
    if step < dim:
        upper_sample, lower_sample = rng.uniform(size=2)
        visits = np.where(visits > TAIL_LIMIT, TAIL_LIMIT * upper_sample,
                          visits)
        visits = np.where(visits < -TAIL_LIMIT, -TAIL_LIMIT * lower_sample,
                          visits)
        return _wrap(visits + x)
    out = np.copy(x)
    index = step - dim
    visit = float(visits[0])
    if visit > TAIL_LIMIT:
        visit = TAIL_LIMIT * float(rng.uniform())
    elif visit < -TAIL_LIMIT:
        visit = -TAIL_LIMIT * float(rng.uniform())
    out[index] = _wrap(visit + x[index])
    return out


def _anneal(cost, dim, rng, anneal_evals):
    """One GSA chain over dim angles from a uniform random start: at most
    1000 temperature steps of 2 * dim visits each, ending sooner once
    anneal_evals evaluations are spent."""
    t1 = math.exp((VISIT - 1.0) * math.log(2.0)) - 1.0
    x_cur = rng.uniform(-math.pi, math.pi, dim)
    e_cur = cost(x_cur)
    for step in range(1000):
        t2 = math.exp((VISIT - 1.0) * math.log(step + 2.0)) - 1.0
        temperature = INITIAL_TEMP * t1 / t2
        temperature_step = temperature / (step + 1.0)
        for j in range(2 * dim):
            if cost.nfev >= anneal_evals:
                return
            x_visit = _visit(rng, x_cur, j, temperature)
            e = cost(x_visit)
            if e < e_cur:
                x_cur, e_cur = x_visit, e
            else:
                pqv_temp = 1.0 - ((1.0 - ACCEPT) * (e - e_cur)
                                  / temperature_step)
                if pqv_temp > 0.0:
                    pqv = math.exp(math.log(pqv_temp) / (1.0 - ACCEPT))
                    if rng.uniform() <= pqv:
                        x_cur, e_cur = x_visit, e


def _best_angle(probe, a0, d0, controlled):
    """One coordinate's maximizer of the squared overlap (1 - d)^2, rebuilt
    from its distance d0 at a0 and probes at shifted angles; None when the
    overlap does not depend on it, i.e. when its oscillation is within 1e-12
    of its mean, as rounding leaves a flat coordinate's probes.

    The squared overlap is a low-order trigonometric polynomial of the angle:
    period 2pi with 3 coefficients for plain rotations (2 probes), period 4pi
    with 5 for controlled ones (4 probes, maximized on a grid).
    """
    y0 = (1.0 - d0) ** 2
    if controlled:
        offsets = [4.0 * math.pi * k / 5.0 for k in range(1, 5)]
        ys = [y0] + [(1.0 - probe(a0 + off)) ** 2 for off in offsets]
        angles = np.array([a0] + [a0 + off for off in offsets])
        design = np.column_stack([
            np.ones(5), np.cos(angles), np.sin(angles),
            np.cos(angles / 2.0), np.sin(angles / 2.0)])
        coef = np.linalg.solve(design, np.array(ys))
        vals = (coef[0] + coef[1] * np.cos(_GRID) + coef[2] * np.sin(_GRID)
                + coef[3] * np.cos(_GRID / 2.0)
                + coef[4] * np.sin(_GRID / 2.0))
        return float(_GRID[np.argmax(vals)])
    y1 = (1.0 - probe(a0 + math.pi)) ** 2
    y2 = (1.0 - probe(a0 + math.pi / 2.0)) ** 2
    alpha = 0.5 * (y0 + y1)
    u, v = y0 - alpha, y2 - alpha
    beta = u * math.cos(a0) - v * math.sin(a0)
    gamma = u * math.sin(a0) + v * math.cos(a0)
    if math.hypot(beta, gamma) <= 1e-12 * alpha:
        return None
    return math.atan2(gamma, beta)


def _rotation_solve(cost, evaluator, rng):
    """Cyclic exact line search over rotation angles (Rotosolve).

    Every parameter is the angle of exactly one rotation gate, so each
    coordinate jumps straight to its constrained maximizer (`_best_angle`).
    Restarts from random points spend any budget left after convergence.

    No probe runs the circuit (Ostaszewski et al. 2021, arXiv:1905.09692).
    Each pass pulls the target back through the step list's rotations and
    literal runs (a fused step's members one by one) once, at its starting
    theta, for lam_k at every unit k, then walks the units in order carrying
    the block x_k that enters unit k, in complex arithmetic.  At angle
    a = theta[slot] the overlap is C + cos(a/2) P - i sin(a/2) Q
    (`_Rotation.overlap_terms`), so each charged evaluation, probe or
    confirm, is one closed-form value.  lam_k stays exact because the units
    after k are still at their pass-start angles when k is visited.
    Coordinates are therefore visited in op order, which is slot order.
    """
    units = [m for s in evaluator.steps.steps
             for m in getattr(s, "members", [s])]
    x = np.array(cost.best_x, float, copy=True)
    d_cur = cost.best_e
    while not cost.exhausted:
        improved = False
        block = np.asarray(evaluator.start, complex)
        lams = [np.asarray(evaluator.target, complex)]
        for unit in reversed(units[1:]):
            lams.append(unit.apply(lams[-1], x, adjoint=True))
        for step, lam in zip(units, reversed(lams)):
            j = step.slot
            if j is not None:
                if cost.exhausted:
                    break
                a0 = x[j]
                c, pk, qk = step.overlap_terms(lam, block)

                def probe(a):
                    x[j] = a
                    t = c + math.cos(a / 2) * pk - 1j * math.sin(a / 2) * qk
                    return cost.charge(x, evaluator.distance(t))

                a_star = _best_angle(probe, a0, d_cur, step.mask is not None)
                d_new = math.inf if a_star is None else probe(a_star)
                if d_new <= d_cur:
                    if d_new < d_cur - 1e-14:
                        improved = True
                    d_cur = d_new
                else:   # reconstruction says no gain is possible here
                    x[j] = a0
            block = step.apply(block, x)
        if not improved:
            if cost.max_evals - cost.nfev > 10 * x.size:
                x = rng.uniform(-math.pi, math.pi, x.size)
                d_cur = cost(x)
            else:
                return


def _grad_polish(cost, rng, fg):
    """Multi-start L-BFGS-B on the exact gradient until the budget runs out.

    Each value-and-gradient call is charged two evaluations.  The first
    search starts from the best annealed point; after a search converges the
    next one restarts from the new best or, once that stops paying off, from
    a fresh random point in the box.
    """
    # imported here, so that only runs that polish with grad-lbfgs load scipy
    from scipy.optimize import minimize

    n = cost.best_x.size

    def counted(x):
        if cost.exhausted:
            return cost.best_e, np.zeros(n)
        f, g = fg(x)
        cost.record(x, f, charge=2)
        return f, g

    # enough calls to converge one basin of this size before restarting
    chunk_cap = max(1000, 20 * n)
    start = cost.best_x
    while not cost.exhausted:
        remaining = min((cost.max_evals - cost.nfev) // 2, chunk_cap)
        if remaining < 2:
            return
        before = cost.best_e
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            minimize(counted, start, jac=True, method="L-BFGS-B",
                     bounds=[(-math.pi, math.pi)] * n,
                     options={"maxfun": remaining, "ftol": 1e-14,
                              "gtol": 1e-10})
        if cost.best_e < before - 1e-12:
            start = cost.best_x
        elif cost.max_evals - cost.nfev > 50 * n:
            start = rng.uniform(-math.pi, math.pi, n)
        else:
            return


def synthesize(problem: SynthesisProblem,
               config: AnnealConfig | None = None) -> SynthesisResult:
    """Minimize the student-teacher Hilbert-Schmidt distance over theta."""
    config = config or AnnealConfig()
    student = problem.student
    n = student.n_params
    evaluator = _Evaluator(student, problem.teacher_unitary,
                           problem.state_prep)

    if n == 0:
        d = evaluator.value(np.empty(0))
        return SynthesisResult(np.empty(0), d, 1,
                               evaluator.overlap(np.empty(0)),
                               d <= CONVERGE_THRESHOLD,
                               seed=config.seed, improvements=[(1, d)])

    if problem.budget < 10 * n:
        warnings.warn(
            f"budget {problem.budget} is below the recommended 10x"
            f" parameter count ({10 * n})", stacklevel=2)

    cost = _CostTracker(evaluator.value, problem.budget + POLISH_ALLOWANCE)
    rng = np.random.default_rng(config.seed)
    anneal_evals = max(1, int(problem.budget * config.anneal_fraction))
    _anneal(cost, n, rng, anneal_evals)

    # the anneal stops within budget, short of the polish allowance
    if config.polish_method.lower() == "rotation-solve":
        _rotation_solve(cost, evaluator, rng)
    else:
        _grad_polish(cost, rng, evaluator.value_and_grad)

    return SynthesisResult(
        theta_star=cost.best_x,
        distance=float(cost.best_e),
        evaluations=cost.nfev,
        trace_of_best=evaluator.overlap(cost.best_x),
        converged=cost.best_e <= CONVERGE_THRESHOLD,
        seed=config.seed,
        improvements=cost.improvements,
    )


def distill(teacher_model, student_template, config: AnnealConfig | None = None,
            budget: int = 1000, seeds=None):
    """Synthesize a student PQC against a frozen teacher; returns the student
    model and the winning chain's `SynthesisResult`.

    The teacher's circuit parameters are frozen and its unitary becomes the
    synthesis target.  Each seed (default: ``config.seed``) runs an
    independent chain; of the chains within `DISTANCE_TIE` of the best
    distance, the lowest seed wins.  The returned student model shares the
    teacher's encoding scheme, scaler, and dense head; only the PQC differs.
    """
    from . import qnn

    config = config or AnnealConfig()
    seeds = [config.seed] if seeds is None else list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    template_id, layers = student_template
    n = teacher_model.n_qubits
    student = build_template(template_id, n, layers)
    teacher_u = unitary_of(bind(teacher_model.pqc, teacher_model.theta))
    problem = SynthesisProblem(teacher_u, student, budget=budget)
    results = [synthesize(problem, dataclasses.replace(config, seed=s))
               for s in seeds]
    best = min(r.distance for r in results)
    result = min((r for r in results if r.distance <= best + DISTANCE_TIE),
                 key=lambda r: r.seed)

    model = qnn.HybridModel(
        teacher_model.scheme, student, result.theta_star,
        teacher_model.W.copy(), teacher_model.b.copy(),
        scaler=teacher_model.scaler, template_id=template_id, layers=layers,
        seed=result.seed)
    return model, result
