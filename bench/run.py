"""qdistill benchmark: the paper's CLI workloads, timed, checked and traced.

Each workload is a fixed list of `qdistill` subcommands (one "pass") run
in-process through `qdistill.cli.main`, the entry point users type.  A run
repeats passes until `--seconds` is spent; pass `i` of a run at seed `s` uses
seed `s + 1000 * i`, so the inputs are a pure function of the seed and no pass
repeats another's work.  After every subcommand the benchmark checks its exit
code and parses its artifacts.

    python3 bench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload train --seed 0 --self-check

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the library's
public functions in spans (see spans.py) and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, and the full result (environment,
per-pass quality numbers, failures, spans) is written to bench/out/.
See bench/README.md for the workloads, metrics and measured spread.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import COUNTS, END, NAME, PARENT, START, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# One BLAS thread: with two threads on a 2-core machine, any other busy process
# makes OpenBLAS spin-wait, and a budget-2000 distill call ran 0.55 s with one
# thread against 2.4-3.8 s with two.  The quality numbers are identical.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PASS_SEED_STRIDE = 1000
# set-up is timed before and after the passes, so that its median spans the
# machine's state over the whole run; host speed drifts by tens of percent
SETUP_BEFORE, SETUP_AFTER = 3, 2
SETUP_CODE = (
    "import qdistill.cli\n"
    "from qdistill.data import load_iris\n"
    "from qdistill.noisesim import load_profile\n"
    "load_iris(seed={seed})\n"
    "load_profile('melbourne')\n")
# ROADMAP baseline table (2 cores, best of 3) for the traced cross-check.
# (span, model size, rows or None for any, ms per call, or per row for noisesim)
BASELINE = (("qnn.forward_batch", "c15x7", 120, 4.1),
            ("qnn.gradients", "c15x7", 120, 170.0),
            ("noisesim.evaluate_noisy", "c15x7", None, 88.0))


class CheckFailed(Exception):
    """An artifact failed a check; the message starts with the check's name."""


# ---------------------------------------------------------------------------
# Artifact checks

def _csv(path):
    """(provenance line, rows as dicts) of a qdistill CSV artifact."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    prov = lines[0] if lines and lines[0].startswith("#") else ""
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    return prov, [dict(zip(header, ln.split(","), strict=True))
                  for ln in body[1:]]


def _json(path):
    with open(path) as fh:
        return json.load(fh)


def _fraction(check, value):
    """A distance, accuracy or fidelity: finite and inside [0, 1], unclamped."""
    v = float(value)
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise CheckFailed(f"{check}: {v!r} is not a finite value in [0, 1]")
    return v


def _finite_params(path):
    doc = _json(path)
    for key in ("theta", "W", "b"):
        if not all(math.isfinite(float(x)) for x in _flatten(doc[key])):
            raise CheckFailed(f"checkpoint_finite: {key} in {path}")
    return doc


def _flatten(values):
    for v in values:
        if isinstance(v, list):
            yield from _flatten(v)
        else:
            yield v


def check_manifest(work, command):
    doc = _json(os.path.join(work, "manifest.json"))
    if doc["command"] != command:
        raise CheckFailed(f"manifest_command: {doc['command']!r} != {command!r}")
    for rel in doc["artifacts"]:
        if not os.path.exists(os.path.join(work, rel)):
            raise CheckFailed(f"manifest_artifacts: {rel} missing")


def check_train(stem, epochs, key):
    def check(work):
        _finite_params(os.path.join(work, f"{stem}.json"))
        _, rows = _csv(os.path.join(work, f"{stem}_history.csv"))
        if len(rows) != epochs + 1:
            raise CheckFailed(f"history_rows: {len(rows)} != {epochs + 1}")
        last = rows[-1]
        loss = float(last["train_loss"])
        if not (math.isfinite(loss) and loss > 0.0):
            raise CheckFailed(f"train_loss_positive: {loss!r}")
        _fraction("train_acc_in_range", last["train_acc"])
        return {f"train_loss_{key}": loss,
                f"val_acc_{key}": _fraction("val_acc_in_range", last["val_acc"])}
    return check


def check_distill(layer_counts):
    def check(work):
        _, rows = _csv(os.path.join(work, "distances.csv"))
        found = {int(r["layers"]): r for r in rows}
        if sorted(found) != sorted(layer_counts):
            raise CheckFailed(f"distance_rows: layers {sorted(found)}")
        out = {}
        for layers, row in found.items():
            if int(row["evaluations"]) < 1:
                raise CheckFailed(f"evaluations_positive: {row['evaluations']}")
            out[f"distance_{layers}l"] = _fraction("distance_in_range",
                                                   row["distance"])
            _finite_params(os.path.join(work, f"student_c15_{layers}l.json"))
        return out
    return check


def check_finetune(stem, key):
    def check(work):
        _finite_params(os.path.join(work, f"{stem}_ft.json"))
        _, rows = _csv(os.path.join(work, f"{stem}_ft_report.csv"))
        by_split = {r["split"]: r for r in rows}
        if sorted(by_split) != ["train", "val"]:
            raise CheckFailed(f"report_rows: splits {sorted(by_split)}")
        for r in rows:
            _fraction("approx_acc_in_range", r["approx_acc"])
            _fraction("finetuned_acc_in_range", r["finetuned_acc"])
        return {key: float(by_split["val"]["finetuned_acc"])}
    return check


def check_noise_eval(names):
    """Accuracy over all rows per checkpoint, from the train and val splits."""
    def check(work):
        prov, rows = _csv(os.path.join(work, "noise_eval.csv"))
        split = re.search(r"split=(\d+)/(\d+)", prov)
        if not split:
            raise CheckFailed(f"noise_eval_provenance: {prov!r}")
        sizes = {"train": int(split.group(1)), "val": int(split.group(2))}
        out = {}
        for ckpt, key in names.items():
            mine = {r["split"]: r for r in rows if r["checkpoint"] == ckpt}
            if sorted(mine) != ["train", "val"]:
                raise CheckFailed(f"noise_eval_rows: {ckpt} has {sorted(mine)}")
            correct = 0
            for name, r in mine.items():
                acc = _fraction("noisy_acc_in_range", r["accuracy"])
                correct += round(acc * sizes[name])
            out[key] = correct / sum(sizes.values())
        return out
    return check


def check_sweep(qubits, instances):
    def check(work):
        _, summary = _csv(os.path.join(work, "fidelity.csv"))
        if [int(r["n_qubits"]) for r in summary] != list(qubits):
            raise CheckFailed("fidelity_rows: qubit counts differ")
        for r in summary:
            _fraction("mean_fidelity_in_range", r["mean_fidelity"])
        _, raw = _csv(os.path.join(work, "fidelity_raw.csv"))
        if len(raw) != len(qubits) * instances:
            raise CheckFailed(f"fidelity_raw_rows: {len(raw)}")
        fids = [(int(r["n_qubits"]), _fraction("fidelity_in_range",
                                               r["fidelity"])) for r in raw]
        n6 = [f for n, f in fids if n == max(qubits)]
        return {"mean_fidelity": statistics.fmean(f for _, f in fids),
                "mean_fidelity_n6": statistics.fmean(n6)}
    return check


# ---------------------------------------------------------------------------
# Workloads: each maps (pass seed, output dir) to [(argv, check)], and a pass's
# quality dict to the report's quality metrics (name, value, unit, better).

def pipeline_steps(seed, out):
    """README session: train, distill to 2 and 4 layers, fine-tune, noise-eval.

    Paper sizes except the distill budget (6000, not 20000), so that one pass
    fits a run; see README.md for the seed-0 numbers at both budgets.
    """
    s, teacher = str(seed), f"c15_7l_seed{seed}"
    common = ["--seed", s, "--out", out]
    return [
        (["train", "--template", "c15", "--layers", "7", "--epochs", "10",
          *common], check_train(teacher, 10, "teacher")),
        (["distill", "--teacher", os.path.join(out, f"{teacher}.json"),
          "--template", "c15", "--layers", "2,4", "--budget", "6000",
          "--seeds", f"{seed},{seed + 1},{seed + 2}", "--jobs", "1",
          "--polish-method", "grad-lbfgs", "--anneal-fraction", "0.2",
          *common], check_distill((2, 4))),
        (["finetune", "--checkpoint", os.path.join(out, "student_c15_2l.json"),
          "--epochs", "2", "--batch-size", "16", *common],
         check_finetune("student_c15_2l", "ft_val_acc_2l")),
        (["finetune", "--checkpoint", os.path.join(out, "student_c15_4l.json"),
          "--epochs", "2", "--batch-size", "16", *common],
         check_finetune("student_c15_4l", "student_ft_val_acc")),
        (["noise-eval", "--checkpoints",
          f"{os.path.join(out, teacher + '.json')},"
          f"{os.path.join(out, 'student_c15_4l_ft.json')}",
          "--profile", "melbourne", *common],
         check_noise_eval({f"{teacher}.json": "teacher_noisy_acc",
                           "student_c15_4l_ft.json": "student_noisy_acc"})),
    ]


def pipeline_quality(q):
    return [("distance_2l", q["distance_2l"], "HS distance", "lower"),
            ("distance_4l", q["distance_4l"], "HS distance", "lower"),
            ("student_ft_val_acc", q["student_ft_val_acc"], "fraction", "higher"),
            ("teacher_noisy_acc", q["teacher_noisy_acc"], "fraction", "higher"),
            ("student_noisy_acc", q["student_noisy_acc"], "fraction", "higher")]


SWEEP_QUBITS = (2, 3, 4, 5, 6)
SWEEP_INSTANCES = 2


def sweep_steps(seed, out):
    """The c2 state-preparation sweep on n=2..6 with 2 instances (paper: 40)."""
    return [(["fidelity-sweep", "--template", "c2", "--layers", "6",
              "--student-layers", "4",
              "--qubits", ",".join(map(str, SWEEP_QUBITS)),
              "--instances", str(SWEEP_INSTANCES), "--budget", "1000",
              "--polish-method", "rotation-solve", "--anneal-fraction", "0.05",
              "--seed", str(seed), "--out", out],
             check_sweep(SWEEP_QUBITS, SWEEP_INSTANCES))]


def sweep_quality(q):
    return [("mean_fidelity", q["mean_fidelity"], "fraction", "higher"),
            ("mean_fidelity_n6", q["mean_fidelity_n6"], "fraction", "higher")]


TRAIN_RUNS = (("c15", 7, 10, None, 0), ("c15", 7, 10, None, 1),
              ("c15", 7, 10, None, 2), ("c15", 7, 2, 16, 0),
              ("c6", 2, 5, None, 0))


def train_steps(seed, out):
    """Two-term shift (c15) at 120- and 16-row batches, four-term shift (c6)."""
    steps = []
    for i, (tpl, layers, epochs, batch, offset) in enumerate(TRAIN_RUNS):
        argv = ["train", "--template", tpl, "--layers", str(layers),
                "--epochs", str(epochs), "--seed", str(seed + offset),
                "--out", out]
        if batch:
            argv += ["--batch-size", str(batch)]
        steps.append((argv, check_train(f"{tpl}_{layers}l_seed{seed + offset}",
                                        epochs, i)))
    return steps


def train_quality(q):
    n = len(TRAIN_RUNS)
    return [("final_train_loss",
             statistics.fmean(q[f"train_loss_{i}"] for i in range(n)),
             "cross-entropy", "lower"),
            ("mean_val_acc", statistics.fmean(q[f"val_acc_{i}"] for i in range(n)),
             "fraction", "higher")]


WORKLOADS = {
    "pipeline": (pipeline_steps, pipeline_quality),
    "fidelity_sweep": (sweep_steps, sweep_quality),
    "train": (train_steps, train_quality),
}


# ---------------------------------------------------------------------------
# Running passes

def run_pass(cli, steps, out):
    """Run one pass; returns wall time, quality dict and failure messages."""
    quality, failures = {}, []
    started = time.perf_counter()
    for argv, check in steps:
        name = argv[0]
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - one crash must not end the run
            failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        if rc != 0:
            failures.append(f"{name}: exit_code: {rc}")
            continue
        try:
            check_manifest(out, name)
            quality.update(check(out))
        except CheckFailed as exc:
            failures.append(f"{name}: {exc}")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"{name}: artifact_parse: {type(exc).__name__}: {exc}")
    return {"wall_s": time.perf_counter() - started, "quality": quality,
            "failures": failures, "attempted": len(steps)}


def run_passes(cli, workload, seed, seconds, work):
    """Passes until starting another would overrun `seconds` (at least one)."""
    steps_of = WORKLOADS[workload][0]
    passes = []
    started = time.perf_counter()
    while True:
        out = os.path.join(work, f"pass{len(passes)}")
        os.makedirs(out)
        result = run_pass(cli, steps_of(seed + PASS_SEED_STRIDE * len(passes),
                                        out), out)
        passes.append(result)
        shutil.rmtree(out)
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds:
            return passes


def time_setup(seed, repeats):
    """Wall times of fresh interpreters importing qdistill and loading the Iris
    data and the melbourne profile: what every CLI command pays first."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE.format(seed=seed)],
                       env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - started)
    return times


def tail_percentile(samples):
    """(value, percentile, n): the highest percentile with >= 10 samples above
    it, i.e. the 11th-largest sample; None when there are fewer than 11."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], math.floor(100 * (n - 10) / n), n


# ---------------------------------------------------------------------------
# Per-layer spans

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _model_rows(features_kw):
    """Counter for `f(model, features, ...)`: rows and model size."""
    def count(args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        return {"rows": len(_arg(args, kwargs, 1, features_kw)),
                "size": f"{model.template_id}x{model.layers}"}
    return count


def _synth_counts(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return {"evals": result.evaluations, "improvements": len(result.improvements),
            "n": problem.student.n_qubits}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# (module, function, counter) for every span; the module's last name part and
# the function name make the span name.  Private kernels are not wrapped.
TRACED = (
    ("qdistill.cli", "main", None),
    ("qdistill.data", "load_iris", None),
    ("qdistill.encoding", "encode", None),
    ("qdistill.circuit", "unitary_of", None),
    ("qdistill.transpile", "lower",
     lambda a, k, r: {"gates_out": len(r.ops)}),
    ("qdistill.qnn", "train", None),
    ("qdistill.qnn", "gradients", _model_rows("features_scaled")),
    ("qdistill.qnn", "forward_batch", _model_rows("features_scaled")),
    ("qdistill.qnn", "evaluate", None),
    ("qdistill.qnn", "save_checkpoint", _checkpoint_bytes),
    ("qdistill.qnn", "load_checkpoint", None),
    ("qdistill.synthesis", "distill", None),
    ("qdistill.synthesis", "synthesize", _synth_counts),
    ("qdistill.noisesim", "evaluate_noisy", _model_rows("features")),
    ("qdistill.noisesim", "run_noisy",
     lambda a, k, r: {"gates": len(_arg(a, k, 0, "circuit").ops)}),
)
COUNTED_ONLY = (("qdistill.gates", "gate_matrix"),)

# Per-pass means unless the unit says otherwise.
PER_LAYER = (
    ("cli.main.calls", "calls/pass"), ("cli.main.self_s", "s/pass"),
    ("data.load_iris.calls", "calls/pass"), ("data.load_iris.busy_s", "s/pass"),
    ("encoding.encode.calls", "calls/pass"),
    ("encoding.encode.busy_s", "s/pass"),
    ("circuit.unitary_of.calls", "calls/pass"),
    ("circuit.unitary_of.busy_s", "s/pass"),
    ("transpile.lower.calls", "calls/pass"),
    ("transpile.lower.busy_s", "s/pass"),
    ("transpile.lower.gates_out", "gates/pass"),
    ("qnn.train.calls", "calls/pass"), ("qnn.train.busy_s", "s/pass"),
    ("qnn.train.self_s", "s/pass"),
    ("qnn.gradients.calls", "calls/pass"), ("qnn.gradients.rows", "rows/pass"),
    ("qnn.gradients.busy_s", "s/pass"), ("qnn.gradients.ms_per_row", "ms/row"),
    ("qnn.forward_batch.calls", "calls/pass"),
    ("qnn.forward_batch.rows", "rows/pass"),
    ("qnn.forward_batch.busy_s", "s/pass"),
    ("qnn.evaluate.calls", "calls/pass"), ("qnn.evaluate.busy_s", "s/pass"),
    ("qnn.save_checkpoint.calls", "calls/pass"),
    ("qnn.save_checkpoint.busy_s", "s/pass"),
    ("qnn.save_checkpoint.bytes", "bytes/pass"),
    ("qnn.load_checkpoint.calls", "calls/pass"),
    ("qnn.load_checkpoint.busy_s", "s/pass"),
    ("synthesis.distill.calls", "calls/pass"),
    ("synthesis.distill.busy_s", "s/pass"),
    ("synthesis.distill.self_s", "s/pass"),
    ("synthesis.synthesize.calls", "calls/pass"),
    ("synthesis.synthesize.busy_s", "s/pass"),
    ("synthesis.synthesize.evals", "evals/pass"),
    ("synthesis.synthesize.improvements", "count/pass"),
    ("synthesis.synthesize.us_per_eval", "us/eval"),
    *((f"synthesis.synthesize.us_per_eval.n{n}", "us/eval") for n in SWEEP_QUBITS),
    ("noisesim.evaluate_noisy.calls", "calls/pass"),
    ("noisesim.evaluate_noisy.busy_s", "s/pass"),
    ("noisesim.evaluate_noisy.self_s", "s/pass"),
    ("noisesim.run_noisy.calls", "calls/pass"),
    ("noisesim.run_noisy.busy_s", "s/pass"),
    ("noisesim.run_noisy.ms_per_call", "ms/call"),
    ("noisesim.run_noisy.gates", "gates/pass"),
    ("gates.gate_matrix.calls", "calls/pass"),
    ("bench.traced_wall_s", "s"),
    ("bench.top_span_coverage", "%"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Every PER_LAYER value from the spans of all passes."""
    n_pass = len(passes)
    selfs = tracer.self_times()
    agg = {}
    for span, self_s in zip(tracer.spans, selfs):
        a = agg.setdefault(span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["busy_s"] += span[END] - span[START]
        a["self_s"] += self_s
        for key, value in (span[COUNTS] or {}).items():
            if isinstance(value, (int, float)):
                a[key] = a.get(key, 0) + value
        if span[NAME] == "synthesis.synthesize" and "n" in (span[COUNTS] or {}):
            by_n = agg.setdefault(f"synthesis.synthesize@n{span[COUNTS]['n']}",
                                  {"busy_s": 0.0, "evals": 0})
            by_n["busy_s"] += span[END] - span[START]
            by_n["evals"] += span[COUNTS]["evals"]
    for name, calls in tracer.calls_only.items():
        agg[name] = {"calls": calls}

    top = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    walls = [p["wall_s"] for p in passes]
    metrics = {}
    for name, unit in PER_LAYER:
        parts = name.split(".")
        span_name, stat = ".".join(parts[:2]), parts[-1]
        a = agg.get(span_name, {})
        if name == "bench.traced_wall_s":
            value = statistics.median(walls)
        elif name == "bench.top_span_coverage":
            value = 100.0 * _ratio(top, sum(walls))
        elif stat == "ms_per_row":
            value = 1e3 * _ratio(a.get("busy_s", 0.0), a.get("rows", 0))
        elif stat == "ms_per_call":
            value = 1e3 * _ratio(a.get("busy_s", 0.0), a.get("calls", 0))
        elif "us_per_eval" in parts:
            if len(parts) == 4:
                a = agg.get(f"{span_name}@{parts[3]}", {})
            value = 1e6 * _ratio(a.get("busy_s", 0.0), a.get("evals", 0))
        else:
            value = a.get(stat, 0) / n_pass
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def baseline_rows(tracer):
    """This run's per-call figures beside the ROADMAP baseline, split by size."""
    groups = {}
    for span in tracer.spans:
        counts = span[COUNTS] or {}
        if "size" in counts:
            key = (span[NAME], counts["size"], counts["rows"])
            g = groups.setdefault(key, [0, 0.0])
            g[0] += 1
            g[1] += span[END] - span[START]
    rows = []
    for (name, size, n_rows), (calls, busy) in sorted(groups.items()):
        per_row = name == "noisesim.evaluate_noisy"
        value = 1e3 * busy / (calls * n_rows if per_row else calls)
        ref = next((b[3] for b in BASELINE if b[0] == name and b[1] == size
                    and b[2] in (None, n_rows)), None)
        rows.append({"layer": name, "size": size, "rows": n_rows, "calls": calls,
                     "value": value, "unit": "ms/row" if per_row else "ms/call",
                     "baseline": ref,
                     "ratio": value / ref if ref else None})
    return rows


# ---------------------------------------------------------------------------
# Environment

def _openblas_runtime():
    """Thread count and kernel family of each loaded OpenBLAS, if queryable."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                core = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
                if threads is None or core is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                core.restype, core.argtypes = ctypes.c_char_p, []
                found[pkg.__name__] = {"threads": threads(),
                                       "core": core().decode()}
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": BLAS_THREADS,
        "blas_runtime": _openblas_runtime(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry point

def _import_cli():
    """Import qdistill from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "qdistill", "cli.py")):
        raise SystemExit(f"error: no qdistill sources under {SRC}")
    sys.path.insert(0, SRC)
    from qdistill import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported qdistill from {cli.__file__}")
    return cli


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run pass seed s twice and s+1 once; the two at s must "
                        "give identical quality numbers and s+1 different ones")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _print_env(env):
    rt = ", ".join(f"{k}: {v['threads']} thread(s), {v['core']}"
                   for k, v in env["blas_runtime"].items()) or "not queryable"
    print(f"env python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, {env['blas']} {env['blas_version']} ({rt}), "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}")


def self_check(cli, workload, seed, work):
    """Quality numbers repeat at one seed and change at another."""
    steps_of = WORKLOADS[workload][0]
    runs = []
    for i, s in enumerate((seed, seed, seed + 1)):
        out = os.path.join(work, f"check{i}")
        os.makedirs(out)
        runs.append(run_pass(cli, steps_of(s, out), out))
    ok = not any(r["failures"] for r in runs)
    same = runs[0]["quality"] == runs[1]["quality"]
    differs = runs[0]["quality"] != runs[2]["quality"]
    for label, r in zip((f"seed {seed}", f"seed {seed} again", f"seed {seed + 1}"),
                        runs):
        print(f"{label}: {json.dumps(r['quality'], sort_keys=True)}")
        for f in r["failures"]:
            print(f"  FAILED {f}")
    print(f"self-check {workload}: same seed identical: {same}; "
          f"other seed differs: {differs}; no failures: {ok}")
    return 0 if (ok and same and differs) else 1


def run_all(args):
    """Each workload in its own interpreter, so peak RSS stays per workload."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.self_check:
            cmd.append("--self-check")
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    cli = _import_cli()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.self_check:
            return self_check(cli, args.workload, args.seed, work)
        return measure(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(cli, args, work):
    env = environment()
    setup_samples = [] if args.trace else time_setup(args.seed, SETUP_BEFORE)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    tracer = Tracer(run_id)
    if args.trace:
        wanted = [(m, f, c, True) for m, f, c in TRACED]
        wanted += [(m, f, None, False) for m, f in COUNTED_ONLY]
    else:
        # one span per synthesize call (tens per pass) for synth_s; nothing else
        wanted = [("qdistill.synthesis", "synthesize", None, True)]
    missing = [f"{m}.{f}" for m, f, c, span in wanted
               if not tracer.install(m, f, c, span=span)]
    try:
        passes = run_passes(cli, args.workload, args.seed, args.seconds, work)
    finally:
        tracer.uninstall()
    if not args.trace:
        setup_samples += time_setup(args.seed, SETUP_AFTER)
        setup_s = statistics.median(setup_samples)

    attempted = sum(p["attempted"] for p in passes)
    failures = [f"pass {i}: {f}" for i, p in enumerate(passes)
                for f in p["failures"]]
    failed = len(failures)       # one message per failed step
    walls = [p["wall_s"] for p in passes]
    quality_of = WORKLOADS[args.workload][1]
    try:
        quality = quality_of(passes[0]["quality"])
    except KeyError:        # a step of pass 0 failed and is in `failures`
        quality = []
    synth = tracer.durations("synthesis.synthesize")

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), "
          f"pass seeds {args.seed} + {PASS_SEED_STRIDE}*i, trace {args.trace}, "
          f"run {run_id}")
    _print_env(env)
    print(f"{'wall_s':<26}{statistics.median(walls):>14.6g} s  lower "
          f"(median over passes; passes {', '.join(f'{w:.3f}' for w in walls)})")
    if not args.trace:
        print(f"{'setup_s':<26}{setup_s:>14.6g} s  lower (median of "
              f"{len(setup_samples)} fresh interpreters: "
              f"{', '.join(f'{t:.3f}' for t in setup_samples)})")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':<26}{peak_rss_mb:>14.6g} MB lower")
    print(f"{'fail_ratio':<26}{failed / attempted:>14.6g} "
          f"failed/attempted lower ({failed}/{attempted})")
    if synth:
        tail = tail_percentile(synth)
        print(f"{'synth_s.p50':<26}{statistics.median(synth):>14.6g} s  lower "
              f"(n={len(synth)} synthesize calls)")
        if tail:
            print(f"{'synth_s.tail':<26}{tail[0]:>14.6g} s  lower "
                  f"(p{tail[1]}, n={tail[2]}, 10 samples beyond it)")
        else:
            print(f"{'synth_s.tail':<26}{'n/a':>14} s  (n={len(synth)} < 11)")
    for name, value, unit, better in quality:
        print(f"{name:<26}{value!r:>22} {unit} {better} (pass 0, seed {args.seed})")
    for f in failures:
        print(f"FAILED {f}")
    for name in missing:
        print(f"not traced, no such function: {name}")

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "passes": passes, "failures": failures,
              "quality": {n: v for n, v, _, _ in quality},
              "synth_s": synth, "not_traced": missing}
    if args.trace:
        metrics = layer_metrics(tracer, passes)
        for name, m in metrics.items():
            print(f"{name:<40}{m['value']:>16.6g} {m['unit']}")
        result["baseline"] = baseline_rows(tracer)
        for row in result["baseline"]:
            ref = (f"ROADMAP {row['baseline']:g} {row['unit']}, ratio "
                   f"{row['ratio']:.2f}" if row["baseline"] else "no baseline row")
            print(f"baseline {row['layer']} {row['size']} rows={row['rows']}: "
                  f"{row['value']:.4g} {row['unit']} over {row['calls']} calls "
                  f"({ref})")
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result["metrics"] = metrics
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    tracer.dump(path, result)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
