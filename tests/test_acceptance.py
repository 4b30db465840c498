"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line on the real stdout so the verdicts
survive pytest's capture.  Criteria cover decomposition exactness, unitary
preservation, transpilation overhead bands, gradient correctness, synthesis
convergence, depth-vs-distance trends, fine-tune recovery, noisy-backend
ordering, fidelity scaling, channel sanity, and CLI replay determinism.
"""

import json
import math
import os
import statistics
import sys

import numpy as np
import pytest

from qdistill import circuit as circ, cli, data, encoding, noisesim, qnn, \
    synthesis as syn, transpile
from qdistill.circuit import Circuit, Op
from qdistill.gates import GateKind as K

ALL_TEMPLATES = ["c1", "c2", "c6", "c9", "c12", "c15"]

VERDICTS = []   # echoed by conftest's terminal-summary hook


def report(num, name, ok):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num}: {name}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def iris():
    return data.load_iris(seed=0)


@pytest.fixture(scope="module")
def scheme():
    return encoding.EncodingScheme("1:1", 4)


@pytest.fixture(scope="module")
def scaler(iris):
    return encoding.fit_scaler(iris.train_features)


def test_criterion_01_decomposition_exactness():
    cx = transpile.lower(Circuit(2, [Op(K.CX, (0, 1))]), "RIGETTI")
    cz = transpile.lower(Circuit(2, [Op(K.CZ, (0, 1))]), "IBM")
    rep_cx, rep_cz = transpile.metrics(cx), transpile.metrics(cz)
    ok = (rep_cx.gates_2q == 1 and rep_cx.gates_1q == 6
          and all(op.kind is K.CZ for op in cx.ops if len(op.qubits) == 2)
          and rep_cz.gates_2q == 1 and rep_cz.gates_1q == 6
          and all(op.kind is K.CX for op in cz.ops if len(op.qubits) == 2))
    report(1, "decomposition exactness", ok)


def test_criterion_02_unitary_preservation():
    ok = True
    for t_idx, tid in enumerate(ALL_TEMPLATES):
        tpl = circ.build_template(tid, 4, 1)
        for b_idx, basis in enumerate(("IBM", "RIGETTI")):
            for k in range(20):
                rng = np.random.default_rng(10000 * t_idx + 100 * b_idx + k)
                bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi,
                                                   tpl.n_params))
                u = circ.unitary_of(bound)
                v = circ.unitary_of(transpile.lower(bound, basis))
                ok = ok and abs(np.sum(u.conj() * v)) >= 16 - 1e-8
    report(2, "unitary preservation under transpilation", ok)


def test_criterion_03_overhead_bands():
    rows = {(r["template"], r["basis"]): r
            for r in transpile.overhead_table(["c2", "c6", "c9"],
                                              ["IBM", "RIGETTI"], 4)}
    depth_ratio = rows[("c6", "IBM")]["depth"] / rows[("c2", "IBM")]["depth"]
    gate_ratio = rows[("c6", "IBM")]["total"] / rows[("c2", "IBM")]["total"]
    rigetti_ratio = (rows[("c2", "RIGETTI")]["depth"]
                     / rows[("c9", "RIGETTI")]["depth"])
    ok = (6.0 <= depth_ratio <= 11.0 and 4.0 <= gate_ratio <= 7.5
          and 1.3 <= rigetti_ratio <= 2.2)
    report(3, "transpilation overhead bands", ok)


def test_criterion_04_gradient_correctness(iris, scheme, scaler):
    eps = 1e-5
    x = encoding.apply_scaler(scaler, iris.train_features[:8])
    y = iris.train_labels[:8]
    worst = 0.0
    for tid in ("c2", "c6", "c15"):
        model = qnn.init_model(tid, 1, scheme, seed=3, scaler=scaler)
        dtheta, dw, db = qnn.gradients(model, x, y)
        for analytic, vec in ((dtheta, model.theta), (dw, model.W),
                              (db, model.b)):
            flat = vec.ravel()
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                fp = qnn.loss(model, x, y)
                flat[i] = old - eps
                fm = qnn.loss(model, x, y)
                flat[i] = old
                fd[i] = (fp - fm) / (2 * eps)
            worst = max(worst, float(np.max(np.abs(
                np.asarray(analytic).ravel() - fd))))
    report(4, f"gradient correctness (max err {worst:.2e})", worst <= 1e-5)


@pytest.fixture(scope="module")
def self_synthesis_run(tmp_path_factory, scheme, scaler):
    base = tmp_path_factory.mktemp("selfsyn")
    teacher = qnn.init_model("c2", 1, scheme, seed=42, scaler=scaler)
    teacher_path = str(base / "teacher_c2_1l.json")
    qnn.save_checkpoint(teacher, teacher_path)
    out = str(base / "run")
    rc = cli.main(["distill", "--teacher", teacher_path, "--template", "c2",
                   "--layers", "1", "--budget", "1000", "--seeds", "0,1,2",
                   "--out", out])
    assert rc == 0
    return {"teacher": teacher, "teacher_path": teacher_path, "out": out}


def test_criterion_05_self_synthesis(self_synthesis_run, iris):
    out = self_synthesis_run["out"]
    row = open(os.path.join(out, "distances.csv")).read() \
        .strip().splitlines()[2].split(",")
    distance = float(row[1])
    student = qnn.load_checkpoint(os.path.join(out, "student_c2_1l.json"))
    t_acc = qnn.evaluate(self_synthesis_run["teacher"],
                         iris.val_features, iris.val_labels)
    s_acc = qnn.evaluate(student, iris.val_features, iris.val_labels)
    ok = distance <= 1e-3 and abs(t_acc - s_acc) <= 0.02
    report(5, f"self-synthesis (distance {distance:.2e}, "
              f"acc gap {abs(t_acc - s_acc):.3f})", ok)


@pytest.fixture(scope="module")
def compression_teacher(iris, scheme, scaler):
    # small initial weights keep the teacher unitary close to identity,
    # which shallow students can actually reach
    pqc = circ.build_template("c6", 4, 2)
    rng = np.random.default_rng(0)
    model = qnn.HybridModel(scheme, pqc,
                            rng.uniform(-0.3, 0.3, pqc.n_params),
                            rng.uniform(-0.1, 0.1, (3, 4)),
                            rng.uniform(-0.1, 0.1, 3),
                            scaler=scaler, template_id="c6", layers=2, seed=0)
    model, _ = qnn.train(model, iris, qnn.TrainConfig(epochs=5, seed=0))
    return model


def test_criterion_06_depth_distance_trend(compression_teacher):
    cfg = syn.AnnealConfig(polish_method="grad-lbfgs", anneal_fraction=0.05)
    medians = []
    for layers, budget in ((1, 3000), (2, 6000), (4, 12000), (8, 24000)):
        dists = []
        for seed in range(5):
            _, result = syn.distill(compression_teacher, ("c2", layers), cfg,
                                    budget=budget, seeds=[seed])
            dists.append(result.distance)
        medians.append(statistics.median(dists))
    ok = (all(medians[i + 1] <= medians[i] + 1e-9 for i in range(3))
          and medians[3] < medians[0] and medians[3] <= 0.06)
    report(6, "median distance vs depth "
              + "/".join(f"{m:.3f}" for m in medians), ok)


@pytest.fixture(scope="module")
def recovery_runs(iris, scheme, scaler):
    mel = noisesim.load_profile("melbourne")
    cfg = syn.AnnealConfig(polish_method="grad-lbfgs", anneal_fraction=0.2)
    xall = np.vstack([iris.train_features, iris.val_features])
    yall = np.concatenate([iris.train_labels, iris.val_labels])
    runs = []
    for tseed in (0, 1, 2):
        teacher = qnn.init_model("c15", 7, scheme, seed=tseed, scaler=scaler)
        teacher, hist = qnn.train(teacher, iris,
                                  qnn.TrainConfig(epochs=10, seed=tseed))
        entry = {"teacher_train": hist[-1]["train_acc"], "students": {}}
        for layers, budget in ((2, 15000), (4, 20000)):
            student, _ = syn.distill(teacher, ("c15", layers), cfg,
                                     budget=budget, seeds=[0, 1, 2])
            ap = (qnn.evaluate(student, iris.train_features,
                               iris.train_labels),
                  qnn.evaluate(student, iris.val_features, iris.val_labels))
            tuned, _ = qnn.train(student, iris,
                                 qnn.TrainConfig(epochs=2, seed=0,
                                                 batch_size=16))
            ft = (qnn.evaluate(tuned, iris.train_features, iris.train_labels),
                  qnn.evaluate(tuned, iris.val_features, iris.val_labels))
            entry["students"][layers] = {"approx": ap, "finetuned": ft,
                                         "model": tuned}
        entry["teacher_noisy"] = noisesim.evaluate_noisy(teacher, xall, yall,
                                                         mel)
        entry["student_noisy"] = noisesim.evaluate_noisy(
            entry["students"][4]["model"], xall, yall, mel)
        runs.append(entry)
    return runs


def test_criterion_07_finetune_recovery(recovery_runs):
    ok = True
    for entry in recovery_runs:
        for layers, rec in entry["students"].items():
            ok = ok and all(f >= a for f, a in zip(rec["finetuned"],
                                                   rec["approx"]))
        ok = ok and (entry["students"][4]["finetuned"][0]
                     >= entry["teacher_train"] - 0.10)
    report(7, "fine-tuning recovers approximation loss", ok)


def test_criterion_08_noisy_ordering(recovery_runs):
    s_mean = float(np.mean([e["student_noisy"] for e in recovery_runs]))
    t_mean = float(np.mean([e["teacher_noisy"] for e in recovery_runs]))
    report(8, f"noisy accuracy student {s_mean:.3f} > teacher {t_mean:.3f}",
           s_mean > t_mean)


def test_criterion_09_fidelity_scaling():
    cfg = syn.AnnealConfig(polish_method="rotation-solve",
                           anneal_fraction=0.05)
    means = []
    for n in (2, 3, 4, 5, 6):
        t_tpl = circ.build_template("c2", n, 6)
        s_tpl = circ.build_template("c2", n, 4)
        fids = []
        for inst in range(40):
            rng = np.random.default_rng(1000 + 1000 * n + inst)
            target = circ.unitary_of(circ.bind(
                t_tpl, rng.uniform(-math.pi, math.pi, t_tpl.n_params)))
            problem = syn.SynthesisProblem(target, s_tpl, budget=1000,
                                           state_prep=True)
            result = syn.synthesize(problem, cfg)
            fids.append(min(1.0, abs(result.trace_of_best) ** 2))
        means.append(float(np.mean(fids)))
    ok = (means[0] >= 0.99 and means[1] >= 0.90 and means[4] <= 0.70
          and all(means[i + 1] <= means[i] + 1e-12 for i in range(4)))
    report(9, "fidelity scaling "
              + "/".join(f"{m:.3f}" for m in means), ok)


def test_criterion_10_channel_sanity(iris, scheme, scaler):
    mel = noisesim.load_profile("melbourne")
    ok = True
    try:
        for ks in (noisesim.depolarizing_kraus_1q(0.3),
                   noisesim.depolarizing_kraus_2q(0.2),
                   noisesim.amplitude_damping_kraus(0.4),
                   noisesim.phase_damping_kraus(0.25),
                   mel.relaxation_kraus(500.0)):
            noisesim.assert_cptp(ks, tol=1e-10)
    except ValueError:
        ok = False

    model = qnn.init_model("c15", 2, scheme, seed=1, scaler=scaler)
    x, y = iris.val_features[:10], iris.val_labels[:10]
    ideal = qnn.evaluate(model, x, y)
    noiseless = noisesim.evaluate_noisy(model, x, y,
                                        noisesim.zero_noise_profile())
    ok = ok and abs(ideal - noiseless) <= 1e-9

    plus = np.array([[0.5, 0.5], [0.5, 0.5]], complex)
    purities = [noisesim.purity(plus)]
    rho = plus
    for _ in range(3):
        rho = noisesim.apply_kraus(rho, mel.relaxation_kraus(200.0), (0,), 1)
        purities.append(noisesim.purity(rho))
    ok = ok and all(b < a for a, b in zip(purities, purities[1:]))
    report(10, "channel sanity (CPTP, zero-noise, purity)", ok)


def _artifacts_match(run_dir, replay_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["artifacts"]
    for rel in manifest["artifacts"]:
        a = open(os.path.join(run_dir, rel), "rb").read()
        b = open(os.path.join(replay_dir, rel), "rb").read()
        if a != b:
            return False
    return True


def test_criterion_11_replay_determinism(tmp_path_factory, self_synthesis_run,
                                         compression_teacher):
    base = tmp_path_factory.mktemp("replay")
    ok = True

    replay5 = str(base / "c5")
    rc = cli.main(["replay", "--manifest",
                   os.path.join(self_synthesis_run["out"], "manifest.json"),
                   "--out", replay5])
    ok = ok and rc == 0 and _artifacts_match(self_synthesis_run["out"],
                                             replay5)

    teacher_path = str(base / "teacher_c6_2l.json")
    qnn.save_checkpoint(compression_teacher, teacher_path)
    run6, replay6 = str(base / "c6"), str(base / "c6_replay")
    rc = cli.main(["distill", "--teacher", teacher_path, "--template", "c2",
                   "--layers", "1,2,4,8", "--budget", "6000", "--seeds", "0",
                   "--polish-method", "grad-lbfgs",
                   "--anneal-fraction", "0.05", "--out", run6])
    ok = ok and rc == 0
    rc = cli.main(["replay", "--manifest", os.path.join(run6, "manifest.json"),
                   "--out", replay6])
    ok = ok and rc == 0 and _artifacts_match(run6, replay6)
    report(11, "manifest replay is bit-identical", ok)
