"""Command-line harness: train, compress, fine-tune, and report.

Every subcommand writes its artifacts into an output directory (--out, or the
QDISTILL_OUT environment variable, or the working directory) and finishes by
writing a run manifest.  The manifest captures the full config snapshot and
seed, so `replay --manifest <path>` reproduces the run bit for bit; only the
recorded wall time differs between a run and its replay.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import qnn
from .circuit import TEMPLATES, bind, build_template, unitary_of
from .data import load_features_csv, load_iris
from .encoding import EncodingScheme, fit_scaler
from .noisesim import evaluate_noisy, load_profile
from .synthesis import (POLISH_METHODS, AnnealConfig, SynthesisProblem,
                        distill, synthesize)
from .transpile import overhead_csv, overhead_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(Exception):
    """Missing or malformed inputs: files, checkpoints, dataset mismatches."""


class NumericalError(Exception):
    """Non-finite results or failed numerical routines."""


# ---------------------------------------------------------------------------
# Small shared helpers

def _out_dir(args) -> str:
    out = args.out or os.environ.get("QDISTILL_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _nonempty(values, text):
    if not values:
        raise argparse.ArgumentTypeError(f"expected a non-empty list: {text!r}")
    return values


def _int_list(text: str):
    try:
        values = [int(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from exc
    return _nonempty(values, text)


def _str_list(text: str):
    values = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    return _nonempty(values, text)


def _load_dataset(data, classes, seed):
    if str(data).lower() == "iris":
        if classes is not None:
            raise ValueError("--classes applies to CSV datasets, not iris")
        return load_iris(seed=seed)
    if not os.path.exists(data):
        raise DataError(f"dataset not found: {data}")
    if classes is None or len(classes) != 3:
        raise ValueError(f"CSV datasets need --classes a,b,c, got {classes}")
    return _load_input(load_features_csv, data, "dataset", classes, seed=seed)


def _scheme_for(dataset) -> EncodingScheme:
    n_features = dataset.features.shape[1]
    if n_features == 4:
        return EncodingScheme("1:1", 4)
    if n_features == 8:
        return EncodingScheme("2:1", 4)
    raise DataError(f"no encoding scheme for {n_features}-feature data")


def _load_input(loader, path, what, *args, **kwargs):
    """Call a file loader, turning malformed content into a DataError."""
    try:
        return loader(path, *args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} {path}: {exc!r}") from exc


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _history_csv(history, provenance: str) -> str:
    lines = [f"# {provenance}", "epoch,train_loss,train_acc,val_loss,val_acc"]
    for row in history:
        lines.append("{epoch},{train_loss!r},{train_acc!r},{val_loss!r},"
                     "{val_acc!r}".format(**row))
    return "\n".join(lines) + "\n"


def _check_finite(model):
    for arr in (model.theta, model.W, model.b):
        if not np.all(np.isfinite(arr)):
            raise NumericalError("model parameters are not finite")


def write_manifest(out_dir, command, config, seed, artifacts, wall_time):
    """Write the run manifest last, after verifying every artifact exists."""
    for rel in artifacts:
        if not os.path.exists(os.path.join(out_dir, rel)):
            raise DataError(f"artifact missing at exit: {rel}")
    doc = {"command": command, "config": config, "seed": seed,
           "artifacts": list(artifacts), "wall_time_s": wall_time}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each takes a plain JSON-able config dict plus an output
# directory and returns the artifact list, so a manifest replay can call the
# same function with the recorded snapshot.

def run_train(config: dict, out_dir: str):
    dataset = _load_dataset(config["data"], config.get("classes"),
                            config["seed"])
    scheme = _scheme_for(dataset)
    scaler = fit_scaler(dataset.train_features)
    model = qnn.init_model(config["template"], config["layers"], scheme,
                           seed=config["seed"], scaler=scaler)
    tc = qnn.TrainConfig(epochs=config["epochs"], seed=config["seed"],
                         batch_size=config.get("batch_size"))
    model, history = qnn.train(model, dataset, tc)
    _check_finite(model)

    stem = f"{config['template']}_{config['layers']}l_seed{config['seed']}"
    ckpt, hist = f"{stem}.json", f"{stem}_history.csv"
    qnn.save_checkpoint(model, os.path.join(out_dir, ckpt))
    prov = (f"train template={config['template']} layers={config['layers']} "
            f"epochs={config['epochs']} seed={config['seed']} "
            f"data={dataset.provenance}")
    _write_text(os.path.join(out_dir, hist), _history_csv(history, prov))
    return [ckpt, hist]


def _anneal_config(config: dict, seed: int) -> AnnealConfig:
    kwargs = {"seed": seed}
    if config.get("polish_method"):
        kwargs["polish_method"] = config["polish_method"]
    if config.get("anneal_fraction") is not None:
        kwargs["anneal_fraction"] = config["anneal_fraction"]
    return AnnealConfig(**kwargs)


def run_distill(config: dict, out_dir: str):
    teacher_path = config["teacher"]
    if not os.path.exists(teacher_path):
        raise DataError(f"teacher checkpoint not found: {teacher_path}")
    teacher = _load_input(qnn.load_checkpoint, teacher_path, "checkpoint")
    seeds = config["seeds"]
    artifacts = []
    rows = []
    for layers in config["layers"]:
        model, result = distill(
            teacher, (config["template"], layers),
            _anneal_config(config, seeds[0]),
            budget=config["budget"], seeds=seeds)
        if not math.isfinite(result.distance):
            raise NumericalError("synthesis produced a non-finite distance")
        _check_finite(model)
        stem = f"student_{config['template']}_{layers}l"
        qnn.save_checkpoint(model, os.path.join(out_dir, f"{stem}.json"))
        artifacts.append(f"{stem}.json")
        rows.append((layers, result))
    prov = (f"distill teacher={teacher.template_id}_{teacher.layers}l "
            f"student={config['template']} budget={config['budget']} "
            f"seeds={','.join(str(s) for s in seeds)}")
    lines = [f"# {prov}", "layers,distance,evaluations,converged,seed"]
    for layers, r in rows:
        lines.append(f"{layers},{r.distance!r},{r.evaluations},"
                     f"{r.converged},{r.seed}")
    _write_text(os.path.join(out_dir, "distances.csv"),
                "\n".join(lines) + "\n")
    artifacts.append("distances.csv")
    return artifacts


def run_finetune(config: dict, out_dir: str):
    ckpt_path = config["checkpoint"]
    if not os.path.exists(ckpt_path):
        raise DataError(f"checkpoint not found: {ckpt_path}")
    model = _load_input(qnn.load_checkpoint, ckpt_path, "checkpoint")
    dataset = _load_dataset(config["data"], config.get("classes"),
                            config["seed"])
    if dataset.features.shape[1] != model.scheme.capacity:
        raise DataError(
            f"dataset has {dataset.features.shape[1]} features but the "
            f"checkpoint encodes {model.scheme.capacity}")
    if model.scaler is None:
        raise DataError("checkpoint has no scaler; train or distill it first")

    tc = qnn.TrainConfig(epochs=config["epochs"], seed=config["seed"],
                         batch_size=config.get("batch_size"))
    tuned, history = qnn.train(model, dataset, tc)
    tuned.fine_tuned = True
    _check_finite(tuned)

    stem = os.path.splitext(os.path.basename(ckpt_path))[0] + "_ft"
    qnn.save_checkpoint(tuned, os.path.join(out_dir, f"{stem}.json"))
    prov = (f"finetune checkpoint={os.path.basename(ckpt_path)} "
            f"epochs={config['epochs']} seed={config['seed']} "
            f"data={dataset.provenance}")
    # history[0] scores the loaded model, history[-1] the tuned one
    lines = [f"# {prov}", "split,approx_acc,finetuned_acc"]
    for name in ("train", "val"):
        key = f"{name}_acc"
        lines.append(f"{name},{history[0][key]!r},{history[-1][key]!r}")
    _write_text(os.path.join(out_dir, f"{stem}_report.csv"),
                "\n".join(lines) + "\n")
    return [f"{stem}.json", f"{stem}_report.csv"]


def run_transpile_report(config: dict, out_dir: str):
    templates = config["templates"] or sorted(TEMPLATES)
    for tid in templates:
        if tid not in TEMPLATES:
            raise DataError(f"unknown template {tid!r}")
    rows = overhead_table(templates, config["bases"], config["qubits"])
    prov = (f"transpile-report qubits={config['qubits']} "
            f"bases={','.join(config['bases'])}")
    _write_text(os.path.join(out_dir, "overhead.csv"),
                overhead_csv(rows, provenance=prov))
    return ["overhead.csv"]


def run_noise_eval(config: dict, out_dir: str):
    profile = _load_input(load_profile, config["profile"], "profile")
    dataset = _load_dataset(config["data"], config.get("classes"),
                            config["seed"])
    splits = {"train": (dataset.train_features, dataset.train_labels),
              "val": (dataset.val_features, dataset.val_labels)}
    prov = (f"noise-eval profile={profile.name} "
            f"data={dataset.provenance}")
    lines = [f"# {prov}", "checkpoint,profile,split,accuracy"]
    for path in config["checkpoints"]:
        if not os.path.exists(path):
            raise DataError(f"checkpoint not found: {path}")
        model = _load_input(qnn.load_checkpoint, path, "checkpoint")
        if dataset.features.shape[1] != model.scheme.capacity:
            raise DataError(f"feature count mismatch for {path}")
        for name, (x, y) in splits.items():
            acc = evaluate_noisy(model, x, y, profile)
            lines.append(f"{os.path.basename(path)},{profile.name},"
                         f"{name},{acc!r}")
    _write_text(os.path.join(out_dir, "noise_eval.csv"),
                "\n".join(lines) + "\n")
    return ["noise_eval.csv"]


def run_fidelity_sweep(config: dict, out_dir: str):
    tid = config["template"]
    if tid not in TEMPLATES:
        raise DataError(f"unknown template {tid!r}")
    if config["instances"] < 1:
        raise ValueError(f"instances must be >= 1, got {config['instances']}")
    rng_base = config["seed"]
    lines_raw = []
    summary = []
    for n in config["qubits"]:
        teacher_tpl = build_template(tid, n, config["layers"])
        student_tpl = build_template(tid, n, config["student_layers"])
        fidelities = []
        for inst in range(config["instances"]):
            rng = np.random.default_rng(rng_base + 1000 * n + inst)
            theta_t = rng.uniform(-math.pi, math.pi, teacher_tpl.n_params)
            target = unitary_of(bind(teacher_tpl, theta_t))
            problem = SynthesisProblem(target, student_tpl,
                                       budget=config["budget"],
                                       state_prep=True)
            result = synthesize(problem, _anneal_config(config, config["seed"]))
            fid = min(1.0, abs(result.trace_of_best) ** 2)
            if not math.isfinite(fid):
                raise NumericalError("fidelity sweep produced a non-finite value")
            fidelities.append(fid)
            lines_raw.append(f"{n},{inst},{fid!r}")
        summary.append((n, float(np.mean(fidelities)),
                        float(np.std(fidelities))))
    prov = (f"fidelity-sweep template={tid} layers={config['layers']}->"
            f"{config['student_layers']} instances={config['instances']} "
            f"budget={config['budget']} seed={config['seed']}")
    lines = [f"# {prov}", "n_qubits,mean_fidelity,std_fidelity"]
    for n, mean, std in summary:
        lines.append(f"{n},{mean!r},{std!r}")
    _write_text(os.path.join(out_dir, "fidelity.csv"),
                "\n".join(lines) + "\n")
    raw = [f"# {prov}", "n_qubits,instance,fidelity"] + lines_raw
    _write_text(os.path.join(out_dir, "fidelity_raw.csv"),
                "\n".join(raw) + "\n")
    return ["fidelity.csv", "fidelity_raw.csv"]


_RUNNERS = {
    "train": run_train,
    "distill": run_distill,
    "finetune": run_finetune,
    "transpile-report": run_transpile_report,
    "noise-eval": run_noise_eval,
    "fidelity-sweep": run_fidelity_sweep,
}


def run_command(command: str, config: dict, out_dir: str) -> str:
    """Execute a subcommand body and write its manifest; returns manifest path."""
    started = time.perf_counter()
    artifacts = _RUNNERS[command](config, out_dir)
    wall = time.perf_counter() - started
    return write_manifest(out_dir, command, config, config.get("seed", 0),
                          artifacts, wall)


def _config_actions(command: str) -> list:
    """The subcommand's parser actions whose values a manifest records."""
    commands = next(a for a in _build_parser()._actions if a.dest == "command")
    return [a for a in commands.choices[command]._actions
            if a.dest not in ("help", "out")]


def _mistyped_keys(command: str, config: dict) -> list:
    """Config keys whose values fail the parser's round trip or choices."""
    bad = []
    for action in _config_actions(command):
        value = config.get(action.dest)
        if action.dest not in config or (value is None and not action.required
                                         and action.default is None):
            continue
        text = (",".join(map(str, value)) if isinstance(value, list)
                else str(value))
        try:
            same = (action.type or str)(text) == value
        except (ValueError, argparse.ArgumentTypeError):
            same = False
        if not same or (action.choices is not None
                        and value not in action.choices):
            bad.append(action.dest)
    return bad


def run_replay(config: dict, out_dir: str):
    path = config["manifest"]
    if not os.path.exists(path):
        raise DataError(f"manifest not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise DataError(f"malformed manifest {path}: expected an object "
                        "with a 'config' object")
    command = doc.get("command")
    if command not in _RUNNERS:
        raise DataError(f"manifest {path} names unknown command {command!r}")
    missing = [a.dest for a in _config_actions(command)
               if a.dest not in doc["config"]]
    if missing:
        raise DataError(f"malformed manifest {path}: config lacks "
                        + ", ".join(missing))
    mistyped = _mistyped_keys(command, doc["config"])
    if mistyped:
        raise DataError(f"malformed manifest {path}: config values of the "
                        "wrong type for " + ", ".join(mistyped))
    run_command(command, doc["config"], out_dir)
    return []


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdistill",
        description="Train, compress, and evaluate hybrid quantum classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="output directory (default: $QDISTILL_OUT or .)")
        p.add_argument("--seed", type=int, default=0)

    def add_data(p):
        p.add_argument("--data", default="iris",
                       help="'iris' or a path to an 8-feature CSV")
        p.add_argument("--classes", type=_int_list, default=None,
                       help="3 class labels to keep from a CSV dataset")

    p = sub.add_parser("train", help="train a hybrid model")
    add_common(p); add_data(p)
    p.add_argument("--template", default="c6")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=None)

    p = sub.add_parser("distill", help="compress a teacher into students")
    add_common(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint JSON")
    p.add_argument("--template", default="c2")
    p.add_argument("--layers", type=_int_list, default=[1],
                   help="comma-separated student layer counts")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seeds", type=_int_list, default=[0])
    # Ignored: seeds run one after another in this process.  Kept so that
    # command lines passing --jobs and manifests recording it still parse.
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--polish-method", default=None,
                   choices=POLISH_METHODS)
    p.add_argument("--anneal-fraction", type=float, default=None)

    p = sub.add_parser("finetune", help="resume training from a checkpoint")
    add_common(p); add_data(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=16)

    p = sub.add_parser("transpile-report", help="per-template overhead table")
    add_common(p)
    p.add_argument("--templates", type=_str_list, default=None,
                   help="comma-separated template ids (default: all)")
    p.add_argument("--bases", type=_str_list, default=["IBM", "Rigetti"])
    p.add_argument("--qubits", type=int, default=4)

    p = sub.add_parser("noise-eval", help="accuracy under a device profile")
    add_common(p); add_data(p)
    p.add_argument("--checkpoints", type=_str_list, required=True)
    p.add_argument("--profile", default="melbourne")

    p = sub.add_parser("fidelity-sweep",
                       help="synthesis fidelity vs qubit count")
    add_common(p)
    p.add_argument("--template", default="c2")
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--student-layers", type=int, default=4)
    p.add_argument("--qubits", type=_int_list, default=[2, 3, 4, 5, 6])
    p.add_argument("--instances", type=int, default=40)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--polish-method", default="rotation-solve",
                   choices=POLISH_METHODS)
    p.add_argument("--anneal-fraction", type=float, default=0.05)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    add_common(p)
    p.add_argument("--manifest", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "out")}
    try:
        out_dir = _out_dir(args)
        if args.command == "replay":
            run_replay(config, out_dir)
        else:
            run_command(args.command, config, out_dir)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FileNotFoundError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
