"""Approximate unitary synthesis by generalized simulated annealing.

The distillation core: a student circuit's parameters are optimized so that
its unitary mimics a frozen teacher unitary under the Hilbert-Schmidt
distance d = 1 - |Tr(U^dag V)| / N.  The modulus makes the cost real and
invariant under global phase; d = 0 exactly when the student matches the
teacher up to phase.  In state-prep mode only the action on |0...0> counts,
d = 1 - |<psi|V|0...0>| with psi the teacher's first column.  Reported
distances are clamped at 0 against rounding, so they stay in [0, 1].

``synthesize`` is the one synthesis call, and ``distill`` wraps it for a
teacher model.  One evaluator per call computes the distance, the trace
overlap and the exact reverse-mode gradient from the student's compiled
step list (`circuit.StepList`), the same one that trains and fine-tunes the
classifier in `qnn`.  Its seeds are chains in lockstep that share one
config: each chain's anneal and polish are generators that yield the
points theta they need evaluated, and one loop (`_lockstep`) answers every
live chain's pending point with one stacked evaluator call per tick, of the
one kind its phase asks for (values, or values and gradients in grad-lbfgs's
polish).  Each chain draws, stops and counts as it would alone, and of the
chains within `DISTANCE_TIE` of the best distance the lowest seed wins.

The global optimizer is one from-scratch generalized simulated annealing
(GSA) chain from a uniform random start in [-pi, pi]: heavy-tailed Tsallis
visiting moves wrapped into [-pi, pi], the generalized Metropolis rule and
a power-law temperature schedule, for at most 1000 temperature steps of
2 * dim visits each, with no restarts.  It ends sooner once the anneal's
share of the budget is spent.  Its constants (initial temperature 5230.0,
visit 2.62, accept -5.0) are fixed.  A local polish then runs from the best
point, one of `POLISH_METHODS`: grad-lbfgs (default; multi-start L-BFGS on
the exact gradient with a backtracking Armijo search, each search ending at
a relative drop of 1e-14, max|g| <= 1e-10, a failed line search or the
budget, each call charged two evaluations; unboxed, as a 2pi shift only
flips a rotation's global sign and a controlled rotation has period 4pi)
or rotation-solve (closed-form coordinate updates, visited in step order,
where one charged evaluation is one closed-form probe from cached adjoint
environments rather than a circuit run).  Its evaluations are capped so the
total stays within budget + 200.
"""

from __future__ import annotations

import math
import time
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
# a group's chains within this of the best distance tie, and the lowest seed
# wins: chains that reach one optimum end about 1e-16 apart, as rounding falls
DISTANCE_TIE = 1e-12
# GSA schedule and acceptance: the stock dual-annealing defaults
INITIAL_TEMP = 5230.0
VISIT = 2.62
ACCEPT = -5.0
# rotation-solve's search grid for the controlled-rotation maximizer: one
# 4pi period at a spacing of pi/360
_GRID = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1441)
_GRID_STEP = float(_GRID[1] - _GRID[0])
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
    polish_method: str = "grad-lbfgs"   # any case, kept lower-cased
    # cap on the anneal's share of the budget; the chain may end sooner,
    # at its step cap, and the polish gets the rest
    anneal_fraction: float = 0.6

    def __post_init__(self):
        self.polish_method = self.polish_method.lower()
        if self.polish_method not in POLISH_METHODS:
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
    # counts of the work done, deterministic and written to no artifact:
    # value_calls, value_and_grad_calls, anneal_evaluations and
    # polish_evaluations (which sum to evaluations), anneal_steps (the
    # temperature steps that made a visit), anneal_ended_by ("step_cap" or
    # "anneal_fraction"; None when there are no parameters to anneal),
    # anneal_accepted (accepted moves), polish_restarts (searches started
    # after the first), polish_directions (L-BFGS directions computed, 0
    # for rotation-solve) and chains (the seed count of the group that
    # shared the stacked evaluator calls); and anneal_s and polish_s, the
    # wall time in seconds of each phase of the whole group of chains, the
    # only entries a rerun changes
    stats: dict = field(default_factory=dict)


class _Evaluator:
    """Distance, trace overlap and exact gradient of a student vs. the teacher,
    for a (C, P) stack of chains' points at once.

    The student runs as its compiled step list (`Circuit.steps`) on a block X
    that starts as the identity, or as |0...0> in state-prep mode, where X is
    (dim, 1).  The overlap is t = <target, X>: Tr(U^dag V) in full mode,
    <psi|V|0...0> in state-prep mode.  The distance is 1 - |t| / cols for
    X's cols columns, clamped at 0 against rounding; a NaN overlap's is NaN,
    which no `_CostTracker` keeps as its best.

    The gradient comes from one forward and one reverse sweep of the step
    list, started from lam = target: dt/da = e/2 for each slot's term e
    (`StepList.gradient`).  Full mode runs every chain of the stack from the
    identity in one stacked call (x None), so each call builds every fused
    step's matrix once, from one cos call, a real list's leading fused step
    takes its matrix as its block, and the reverse sweep takes one
    environment product per fused step and applies the adjoints its forward
    run kept; t is one vdot per chain.  State prep runs its one-column block
    once per chain.  Full mode computes in float64 when the target and every
    step are real, and then e and the gradient are real.  Chain c's answer is
    the same bits as a call with its point alone.
    """

    def __init__(self, student: Circuit, teacher_unitary, state_prep=False):
        dim = 2 ** student.n_qubits
        cols = 1 if state_prep else dim
        self.target = np.ascontiguousarray(teacher_unitary[:, :cols])
        if student.steps.real and not (state_prep or self.target.imag.any()):
            self.target = self.target.real.copy()
        self.start = np.eye(dim, cols, dtype=self.target.dtype)
        self.x0 = self.start if state_prep else None   # None: the identity
        self.norm = 1.0 / cols
        self.steps = student.steps

    def distance(self, t):
        return max(1.0 - self.norm * abs(t), 0.0)

    def overlaps(self, thetas) -> list:
        if self.x0 is None:
            blocks = self.steps.run(None, thetas)
        else:
            blocks = [self.steps.run(self.x0, theta) for theta in thetas]
        return [complex(np.vdot(self.target, x)) for x in blocks]

    def values(self, thetas) -> list:
        return [self.distance(t) for t in self.overlaps(thetas)]

    def values_and_grads(self, thetas) -> list:
        if self.x0 is None:
            tape = self.steps.run(None, thetas, keep=True)
            e = self.steps.gradient(self.target, tape, thetas)
            blocks = tape.blocks[-1]
        else:
            tapes = [self.steps.run(self.x0, theta, keep=True)
                     for theta in thetas]
            e = np.array([self.steps.gradient(self.target, tape, theta)
                          for tape, theta in zip(tapes, thetas)])
            blocks = [tape.blocks[-1] for tape in tapes]
        ts = [np.vdot(self.target, x).item() for x in blocks]
        # d distance/da = Re(w e); a vanished overlap has no phase to
        # differentiate, and its distance is 1 whatever theta does
        w = np.array([0.0 if abs(t) < 1e-300
                      else -0.5 * self.norm * t.conjugate() / abs(t)
                      for t in ts])
        if e.dtype.kind == "f":
            grads = w[:, None] * e
        else:
            # Re(w e) term by term: numpy's vectorized complex product, as
            # in (w * e).real, rounds differently from the scalar one
            grads = w.real[:, None] * e.real - w.imag[:, None] * e.imag
        return [(self.distance(t), g) for t, g in zip(ts, grads)]


def _lockstep(chains, answer):
    """Run chains, generators that yield points theta and are sent each
    answer, to their ends in lockstep.  Each tick stacks the live chains'
    pending thetas into a (C, P) array and answers them with one call of
    answer, which returns one answer per row.  Returns each chain's return
    value and its request count."""
    out = [None] * len(chains)
    calls = [0] * len(chains)
    pending = {}

    def advance(i, reply):
        try:
            pending[i] = chains[i].send(reply)
        except StopIteration as stop:
            out[i] = stop.value

    for i in range(len(chains)):
        advance(i, None)
    while pending:
        live = list(pending)
        replies = answer(np.array([pending.pop(i) for i in live]))
        for i, reply in zip(live, replies):
            calls[i] += 1
            advance(i, reply)
    return out, calls


class _CostTracker:
    """Counts evaluations and keeps the best-ever point and improvement trace."""

    def __init__(self, max_evals):
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

    def charge(self, x, e):
        """One evaluation of the value e at x, or, once the budget is spent,
        no charge and the best value so far."""
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


def _wrap_one(value):
    """`_wrap` of one angle in `math` floats (fmod is exact, so the same
    bits)."""
    wrapped = math.fmod(math.fmod(value + math.pi, _SPAN) + _SPAN,
                        _SPAN) - math.pi
    if math.fabs(wrapped + math.pi) < _MIN_VISIT_BOUND:
        wrapped += _MIN_VISIT_BOUND
    return wrapped


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
    coordinate at once, step x.size + i only coordinate i.  It draws 2 s
    standard normals (g, then y, for s moved coordinates), then two uniforms
    in [0, 1) for a full move, or one for a single-coordinate move whose
    visit passes `TAIL_LIMIT`."""
    dim = x.size
    size = dim if step < dim else 1
    draws = rng.standard_normal(2 * size)
    g, y = draws[:size], draws[size:]
    factor4 = _FACTOR4_P * math.exp(math.log(temperature) / (VISIT - 1.0))
    g *= math.exp(-(VISIT - 1.0) * math.log(_FACTOR6 / factor4)
                  / (3.0 - VISIT))
    visits = g / np.exp((VISIT - 1.0) * np.log(np.fabs(y)) / (3.0 - VISIT))
    if step < dim:
        upper_sample, lower_sample = rng.random(2)
        visits = np.where(visits > TAIL_LIMIT, TAIL_LIMIT * upper_sample,
                          visits)
        visits = np.where(visits < -TAIL_LIMIT, -TAIL_LIMIT * lower_sample,
                          visits)
        return _wrap(visits + x)
    out = x.copy()
    index = step - dim
    visit = float(visits[0])
    if visit > TAIL_LIMIT:
        visit = TAIL_LIMIT * rng.random()
    elif visit < -TAIL_LIMIT:
        visit = -TAIL_LIMIT * rng.random()
    out[index] = _wrap_one(visit + x[index])
    return out


def _anneal(cost, dim, rng, anneal_evals):
    """One GSA chain over dim angles from a uniform random start, as a
    generator of points theta whose values it is sent (`_lockstep`): at
    most 1000 temperature steps of 2 * dim visits each, ending sooner once
    anneal_evals evaluations are spent, so its number of evaluations does
    not depend on the values.  Returns the number of temperature steps
    that made a visit, what ended the chain ("step_cap" or
    "anneal_fraction"; None for dim 0, which ends after its start) and the
    number of accepted moves."""
    t1 = math.exp((VISIT - 1.0) * math.log(2.0)) - 1.0
    x_cur = rng.uniform(-math.pi, math.pi, dim)
    e_cur = cost.charge(x_cur, (yield x_cur))
    if not dim:
        return 0, None, 0
    accepted = 0
    for step in range(1000):
        t2 = math.exp((VISIT - 1.0) * math.log(step + 2.0)) - 1.0
        temperature = INITIAL_TEMP * t1 / t2
        temperature_step = temperature / (step + 1.0)
        for j in range(2 * dim):
            if cost.nfev >= anneal_evals:
                return (step + 1 if j else step), "anneal_fraction", accepted
            x_visit = _visit(rng, x_cur, j, temperature)
            e = cost.charge(x_visit, (yield x_visit))
            accept = e < e_cur
            if not accept:
                pqv_temp = 1.0 - ((1.0 - ACCEPT) * (e - e_cur)
                                  / temperature_step)
                accept = pqv_temp > 0.0 and rng.random() <= math.exp(
                    math.log(pqv_temp) / (1.0 - ACCEPT))
            if accept:
                x_cur, e_cur = x_visit, e
                accepted += 1
    return 1000, "step_cap", accepted


def _best_angle(probe, a0, d0, controlled):
    """One coordinate's maximizer of the squared overlap (1 - d)^2, rebuilt
    from its distance d0 at a0 and probes at shifted angles; None when the
    overlap does not depend on it, i.e. when its oscillation is within 1e-12
    of its mean, as rounding leaves a flat coordinate's probes.

    The squared overlap is a low-order trigonometric polynomial of the angle:
    period 2pi with 3 coefficients for plain rotations (2 probes), period 4pi
    with 5 for controlled ones (4 probes, maximized on a grid over the whole
    period, then by up to 3 Newton steps on the polynomial's slope, each
    taken only where the curvature is negative and the step within one grid
    spacing).
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
        a = float(_GRID[np.argmax(vals)])
        _, c1, s1, c2, s2 = coef.tolist()
        for _ in range(3):
            cos, sin = math.cos(a), math.sin(a)
            cos2, sin2 = math.cos(a / 2.0), math.sin(a / 2.0)
            slope = s1 * cos - c1 * sin + 0.5 * (s2 * cos2 - c2 * sin2)
            curv = -c1 * cos - s1 * sin - 0.25 * (c2 * cos2 + s2 * sin2)
            if not (curv < 0.0 and abs(slope) <= -curv * _GRID_STEP):
                break
            a -= slope / curv
        return a
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
    """Cyclic exact line search over rotation angles (Rotosolve), as a
    generator of points theta whose values it is sent (`_lockstep`): only
    its restarts yield.

    Every parameter is the angle of exactly one rotation gate, so each
    coordinate jumps straight to its constrained maximizer (`_best_angle`).
    Restarts from random points spend any budget left after convergence.

    No probe runs the circuit (Ostaszewski et al. 2021, arXiv:1905.09692).
    Each pass pulls the target back through `StepList.units`, the
    circuit's rotations and literal runs one by one in op order, before
    fusing, once, at its starting theta, for lam_k at every unit k, then
    walks the units in order carrying the block x_k that enters unit k, in
    complex arithmetic.  At angle a = theta[slot] the overlap is
    C + cos(a/2) P - i sin(a/2) Q (`_Rotation.overlap_terms`), so each
    charged evaluation, probe or confirm, is one closed-form value.  lam_k
    stays exact because the units after k are still at their pass-start
    angles when k is visited.
    Coordinates are therefore visited in op order, which is slot order.
    Returns the number of restarts and of L-BFGS directions (0), as
    `_lbfgs` does.
    """
    units = evaluator.steps.units
    x = np.array(cost.best_x, float, copy=True)
    d_cur = cost.best_e
    restarts = 0
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
                d_cur = cost.charge(x, (yield x))
                restarts += 1
            else:
                return restarts, 0
    return restarts, 0


# curvature pairs an L-BFGS search keeps
_MEMORY = 10


class _InverseHessian:
    """The L-BFGS inverse Hessian of the last `_MEMORY` curvature pairs in
    the compact form of Byrd, Nocedal & Schnabel (Math. Programming 63,
    1994): H = gamma I + [S gamma Y] W [S gamma Y]^T with W = [[R^-T (D +
    gamma Y^T Y) R^-1, -R^-T], [-R^-1, 0]], where S and Y hold the pairs as
    columns, R = triu(S^T Y), D = diag(S^T Y) and gamma = s.y / y.y of the
    newest pair.  It is the matrix the two-loop recursion applies, and
    `times` applies it in a few products.

    S, Y, R^-1, Y^T Y and D live in preallocated buffers.  A kept pair adds
    a column to each from one product (S y and Y y at once) and the
    triangular update of R^-1; dropping the oldest pair shifts each by one,
    which is exact for R^-1 because R is upper triangular.  Nothing is
    inverted or solved.
    """

    def __init__(self, n):
        self.pairs = np.zeros((_MEMORY, 2, n))   # (s, y) rows, oldest first
        self.r_inv = np.zeros((_MEMORY, _MEMORY))
        self.yy = np.zeros((_MEMORY, _MEMORY))
        self.sy = np.zeros(_MEMORY)
        self.k = 0
        self.gamma = 1.0

    def update(self, s, y):
        """Keep the pair (s, y) when s.y > 1e-12 y.y, dropping the oldest
        pair if `_MEMORY` are kept."""
        sy, yy = float(s @ y), float(y @ y)
        if not sy > 1e-12 * yy:
            return
        k = self.k
        if k == _MEMORY:
            k -= 1
            self.pairs[:k] = self.pairs[1:]
            self.r_inv[:k, :k] = self.r_inv[1:, 1:]
            self.yy[:k, :k] = self.yy[1:, 1:]
            self.sy[:k] = self.sy[1:]
        self.pairs[k, 0], self.pairs[k, 1] = s, y
        cross = self.pairs[:k + 1].reshape(2 * k + 2, -1) @ y  # s_i.y, y_i.y
        self.r_inv[:k, k] = self.r_inv[:k, :k] @ cross[:2 * k:2] * (-1.0 / sy)
        self.r_inv[k, k] = 1.0 / sy
        self.yy[k, :k + 1] = self.yy[:k + 1, k] = cross[1::2]
        self.sy[k] = sy
        self.gamma = sy / yy
        self.k = k + 1

    def times(self, g):
        """H g; with no pair kept, g scaled by 1 / max(1, |g|)."""
        k, gamma = self.k, self.gamma
        if not k:
            return g / max(1.0, math.sqrt(g @ g))
        pairs = self.pairs[:k].reshape(2 * k, -1)
        sg_yg = pairs @ g
        r_inv = self.r_inv[:k, :k]
        p = r_inv @ sg_yg[::2]                                  # R^-1 S^T g
        coef = np.empty((k, 2))
        coef[:, 0] = r_inv.T @ (self.sy[:k] * p + gamma
                                * (self.yy[:k, :k] @ p - sg_yg[1::2]))
        coef[:, 1] = -gamma * p
        return gamma * g + coef.ravel() @ pairs


def _lbfgs(cost, rng):
    """Multi-start L-BFGS on the exact gradient until the budget runs out,
    as a generator of points theta whose values and gradients it is sent
    (`_lockstep`); returns the number of searches started after the first
    and the number of search directions computed.

    Each search is unconstrained L-BFGS (Liu & Nocedal 1989): its direction
    is -H g for the compact inverse Hessian of the last 10 curvature pairs
    (`_InverseHessian`), keeping a pair only when s.y > 1e-12 y.y, with the
    first step scaled by 1 / max(1, |g|).  Its line search backtracks from
    t = 1 until the Armijo condition holds (c1 = 1e-4), each retry at the
    minimizer of the quadratic through the value, the slope and the
    rejected value, clamped to [0.1 t, 0.5 t].  A search ends when an
    accepted step lowers the value by at most 1e-14 relative, when max|g|
    <= 1e-10, when the gradient or the direction is not finite, when a line
    search fails (20 trials, as in L-BFGS-B) or when the budget is spent.
    The next search starts from the new best or, once that stops paying
    off, from a fresh uniform point in [-pi, pi] while more than 50 n
    evaluations remain.  Each value-and-gradient call is charged two
    evaluations, and the budget is checked before every call.

    There is no box on the angles.  A plain rotation at a + 2pi is -R(a), a
    global sign the distance ignores, while a controlled rotation has period
    4pi, so a box of [-pi, pi] would cut off half of its period.  Dropping
    the box drops a restriction, not a guarantee: nothing downstream reads
    the range of theta.
    """
    x, restarts, directions = cost.best_x, -1, 0
    while not cost.exhausted:
        restarts += 1
        before = cost.best_e
        f, g = yield x
        cost.record(x, f, charge=2)
        hessian = _InverseHessian(x.size)
        while 1e-10 < np.abs(g).max() < math.inf:
            q = hessian.times(g)
            directions += 1
            slope = -float(g @ q)   # along the direction -q
            if not math.isfinite(slope):
                break
            t = 1.0
            for _ in range(20):
                if cost.exhausted:
                    return restarts, directions
                x_new = x - t * q
                f_new, g_new = yield x_new
                cost.record(x_new, f_new, charge=2)
                if f_new <= f + 1e-4 * t * slope:
                    break
                t_min = -slope * t * t / (2.0 * (f_new - f - slope * t))
                t = min(max(t_min, 0.1 * t), 0.5 * t)
            else:
                break
            if f - f_new <= 1e-14 * max(abs(f), abs(f_new), 1.0):
                break
            hessian.update(x_new - x, g_new - g)
            x, f, g = x_new, f_new, g_new
        if cost.best_e < before - 1e-12:
            x = cost.best_x
        elif cost.max_evals - cost.nfev > 50 * x.size:
            x = rng.uniform(-math.pi, math.pi, x.size)
        else:
            break
    return restarts, directions


def synthesize(problem: SynthesisProblem, config: AnnealConfig | None = None,
               seeds=(0,)) -> SynthesisResult:
    """Minimize the student-teacher Hilbert-Schmidt distance over theta with
    one chain per seed (`_synthesize_chains`); returns the `SynthesisResult`
    of the lowest seed within `DISTANCE_TIE` of the best distance."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    results = _synthesize_chains(problem, config or AnnealConfig(), seeds)
    best = min(r.distance for r in results)
    return min((r for r in results if r.distance <= best + DISTANCE_TIE),
               key=lambda r: r.seed)


def _synthesize_chains(problem: SynthesisProblem, config: AnnealConfig,
                       seeds) -> list:
    """One chain per seed, each anneal then polish as config says, in
    lockstep on one evaluator (`_lockstep`); returns each chain's
    `SynthesisResult`, the same as its own run but for stats' chains,
    anneal_s and polish_s, which are the group's.  A student without
    parameters is only evaluated at its start: nothing anneals and no polish
    runs."""
    student = problem.student
    n = student.n_params
    evaluator = _Evaluator(student, problem.teacher_unitary,
                           problem.state_prep)
    chains = len(seeds)
    if problem.budget < 10 * n:
        warnings.warn(
            f"budget {problem.budget} is below the recommended 10x"
            f" parameter count ({10 * n})", stacklevel=3)

    start = time.perf_counter()
    costs = [_CostTracker(problem.budget + POLISH_ALLOWANCE) for _ in seeds]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    anneal_evals = max(1, int(problem.budget * config.anneal_fraction))
    anneals, anneal_calls = _lockstep(
        [_anneal(cost, n, rng, anneal_evals)
         for cost, rng in zip(costs, rngs)], evaluator.values)
    anneal_evaluations = [cost.nfev for cost in costs]
    polish_start = time.perf_counter()

    # the anneal stops within budget, short of the polish allowance
    grad = config.polish_method == "grad-lbfgs"
    if n:
        polishes, polish_calls = _lockstep(
            [_lbfgs(cost, rng) if grad
             else _rotation_solve(cost, evaluator, rng)
             for cost, rng in zip(costs, rngs)],
            evaluator.values_and_grads if grad else evaluator.values)
        polish_s = time.perf_counter() - polish_start
    else:   # nothing to polish
        polishes, polish_calls, polish_s = [(0, 0)] * chains, [0] * chains, 0.0
    traces = evaluator.overlaps(np.array([cost.best_x for cost in costs]))

    results = []
    for i, (cost, seed) in enumerate(zip(costs, seeds)):
        steps, ended_by, accepted = anneals[i]
        restarts, directions = polishes[i]
        results.append(SynthesisResult(
            theta_star=cost.best_x,
            distance=float(cost.best_e),
            evaluations=cost.nfev,
            trace_of_best=traces[i],
            converged=cost.best_e <= CONVERGE_THRESHOLD,
            seed=seed,
            improvements=cost.improvements,
            stats=dict(value_calls=anneal_calls[i]
                       + (0 if grad else polish_calls[i]),
                       value_and_grad_calls=polish_calls[i] if grad else 0,
                       anneal_evaluations=anneal_evaluations[i],
                       polish_evaluations=cost.nfev - anneal_evaluations[i],
                       anneal_steps=steps, anneal_ended_by=ended_by,
                       anneal_accepted=accepted, polish_restarts=restarts,
                       polish_directions=directions, chains=chains,
                       anneal_s=polish_start - start, polish_s=polish_s)))
    return results


def distill(teacher_model, student_template, config: AnnealConfig | None = None,
            budget: int = 1000, seeds=(0,)):
    """Synthesize a student PQC against a frozen teacher; returns the student
    model and ``synthesize``'s `SynthesisResult` for its seeds.

    The teacher's circuit parameters are frozen and its unitary becomes the
    synthesis target.  The returned student model shares the teacher's
    encoding scheme, scaler, and dense head; only the PQC differs.
    """
    from . import qnn

    template_id, layers = student_template
    student = build_template(template_id, teacher_model.n_qubits, layers)
    teacher_u = unitary_of(bind(teacher_model.pqc, teacher_model.theta))
    result = synthesize(SynthesisProblem(teacher_u, student, budget=budget),
                        config, seeds)

    model = qnn.HybridModel(
        teacher_model.scheme, student, result.theta_star,
        teacher_model.W.copy(), teacher_model.b.copy(),
        scaler=teacher_model.scaler, template_id=template_id, layers=layers,
        seed=result.seed)
    return model, result
