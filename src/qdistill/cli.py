"""Command-line harness: train, compress, fine-tune, and report.

Every subcommand writes its artifacts into an output directory (--out, or the
QDISTILL_OUT environment variable, or the working directory) and finishes by
writing a run manifest.  The manifest captures the full config snapshot and
the seed (null for transpile-report, which draws no random numbers), so
`replay --manifest <path>` reproduces the run bit for bit; only the
recorded wall time differs between a run and its replay.  Replay parses the
recorded config as the subcommand's command line, so a manifest is checked
against the same parser as a typed command.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Every value in a replay comes from the manifest, so a bad one is exit 3.
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
from .circuit import MAX_DIM, TEMPLATES, bind, build_template, unitary_of
from .data import load_features_csv, load_iris
from .encoding import EncodingScheme, fit_scaler
from .noisesim import evaluate_noisy, load_profile
from .synthesis import (POLISH_METHODS, AnnealConfig, SynthesisProblem,
                        distill, synthesize)
from .transpile import overhead_table

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


def _comma_list(text, parse, kind, key=None):
    """Every list option's rule: the comma-separated entries of text, blank
    ones skipped, each parsed, non-empty and distinct (by key, if given)."""
    try:
        values = [parse(tok.strip()) for tok in str(text).split(",")
                  if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {kind}: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"expected a non-empty list: {text!r}")
    if len(set(map(key, values) if key else values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct {kind}: {text!r}")
    return values


def _int_list(text: str):
    return _comma_list(text, int, "ints")


def _str_list(text: str):
    return _comma_list(text, str, "names")


def _basis_list(text: str):   # `transpile.lower` reads any case
    return _comma_list(text, str, "names", key=str.upper)


def _load_dataset(data, classes, seed):
    if str(data).lower() == "iris":
        if classes is not None:
            raise ValueError("--classes applies to CSV datasets, not iris")
        return load_iris(seed=seed)
    if not os.path.exists(data):
        raise DataError(f"dataset not found: {data}")
    if classes is None or len(classes) != 3:
        raise ValueError(f"CSV datasets need --classes a,b,c, three distinct "
                         f"classes, got {classes}")
    return _load_input(load_features_csv, data, "dataset", classes, seed=seed)


def _scheme_for(dataset) -> EncodingScheme:
    # Iris has 4 features and a CSV dataset 8 (`load_features_csv` checks)
    n_features = dataset.features.shape[1]
    return EncodingScheme("1:1" if n_features == 4 else "2:1", 4)


def _load_input(loader, path, what, *args, **kwargs):
    """Call a file loader, turning malformed content into a DataError."""
    try:
        return loader(path, *args, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {what} {path}: {exc!r}") from exc


def _load_checkpoint(path, dataset=None):
    """Load a checkpoint; given a dataset, check its feature count."""
    model = _load_input(qnn.load_checkpoint, path, "checkpoint")
    if (dataset is not None
            and dataset.features.shape[1] != model.scheme.capacity):
        raise DataError(f"checkpoint {path} encodes {model.scheme.capacity} "
                        f"features but the dataset has "
                        f"{dataset.features.shape[1]}")
    return model


def _write_csv(out_dir, name, provenance, header, rows) -> str:
    """Write a `# provenance` line, the header and the rows; returns name.

    Cells are written with str, which for Python and numpy floats is the
    shortest repr that reads back to the same value.
    """
    lines = [f"# {provenance}", header]
    lines += [",".join(str(v) for v in row) for row in rows]
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


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
    ckpt = f"{stem}.json"
    qnn.save_checkpoint(model, os.path.join(out_dir, ckpt))
    prov = (f"train template={config['template']} layers={config['layers']} "
            f"epochs={config['epochs']} seed={config['seed']} "
            f"data={dataset.provenance}")
    columns = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")
    return [ckpt, _write_csv(out_dir, f"{stem}_history.csv", prov,
                             ",".join(columns),
                             [[row[c] for c in columns] for row in history])]


def _anneal_config(config: dict) -> AnnealConfig:
    return AnnealConfig(**{
        key: config[key] for key in ("polish_method", "anneal_fraction")
        if config.get(key) is not None})


def run_distill(config: dict, out_dir: str):
    teacher = _load_checkpoint(config["teacher"])
    dim = 2 ** teacher.n_qubits
    if dim > MAX_DIM:
        raise DataError(f"teacher {config['teacher']} has {teacher.n_qubits} "
                        f"qubits: its unitary's dimension {dim} is above "
                        f"circuit.MAX_DIM = {MAX_DIM}")
    seeds = config["seeds"] or [config["seed"]]
    artifacts = []
    rows = []
    for layers in config["layers"]:
        model, result = distill(
            teacher, (config["template"], layers), _anneal_config(config),
            budget=config["budget"], seeds=seeds)
        if not math.isfinite(result.distance):
            raise NumericalError("synthesis produced a non-finite distance")
        _check_finite(model)
        stem = f"student_{config['template']}_{layers}l"
        qnn.save_checkpoint(model, os.path.join(out_dir, f"{stem}.json"))
        artifacts.append(f"{stem}.json")
        rows.append((layers, result.distance, result.evaluations,
                     result.converged, result.seed))
    prov = (f"distill teacher={teacher.template_id}_{teacher.layers}l "
            f"student={config['template']} budget={config['budget']} "
            f"seeds={','.join(str(s) for s in seeds)}")
    artifacts.append(_write_csv(out_dir, "distances.csv", prov,
                                "layers,distance,evaluations,converged,seed",
                                rows))
    return artifacts


def run_finetune(config: dict, out_dir: str):
    ckpt_path = config["checkpoint"]
    dataset = _load_dataset(config["data"], config.get("classes"),
                            config["seed"])
    model = _load_checkpoint(ckpt_path, dataset)
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
    rows = [(name, history[0][f"{name}_acc"], history[-1][f"{name}_acc"])
            for name in ("train", "val")
            if len(getattr(dataset, f"{name}_labels"))]
    return [f"{stem}.json",
            _write_csv(out_dir, f"{stem}_report.csv", prov,
                       "split,approx_acc,finetuned_acc", rows)]


def run_transpile_report(config: dict, out_dir: str):
    templates = config["templates"] or sorted(TEMPLATES)
    rows = overhead_table(templates, config["bases"], config["qubits"])
    prov = (f"transpile-report qubits={config['qubits']} "
            f"bases={','.join(config['bases'])}")
    columns = ("template", "basis", "depth", "total", "g1q", "g2q")
    return [_write_csv(out_dir, "overhead.csv", prov, ",".join(columns),
                       [[r[c] for c in columns] for r in rows])]


def run_noise_eval(config: dict, out_dir: str):
    profile = _load_input(load_profile, config["profile"], "profile")
    dataset = _load_dataset(config["data"], config.get("classes"),
                            config["seed"])
    splits = {"train": (dataset.train_features, dataset.train_labels),
              "val": (dataset.val_features, dataset.val_labels)}
    rows = []
    for path in config["checkpoints"]:
        model = _load_checkpoint(path, dataset)
        for name, (x, y) in splits.items():
            if len(y):   # a split with no rows has no accuracy
                rows.append((os.path.basename(path), profile.name, name,
                             evaluate_noisy(model, x, y, profile)))
    prov = (f"noise-eval profile={profile.name} "
            f"data={dataset.provenance}")
    return [_write_csv(out_dir, "noise_eval.csv", prov,
                       "checkpoint,profile,split,accuracy", rows)]


def run_fidelity_sweep(config: dict, out_dir: str):
    tid = config["template"]
    if config["instances"] < 1:
        raise ValueError(f"instances must be >= 1, got {config['instances']}")
    rng_base = config["seed"]
    raw = []
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
            result = synthesize(problem, _anneal_config(config),
                                [config["seed"]])
            fid = min(1.0, abs(result.trace_of_best) ** 2)
            if not math.isfinite(fid):
                raise NumericalError("fidelity sweep produced a non-finite value")
            fidelities.append(fid)
            raw.append((n, inst, fid))
        summary.append((n, float(np.mean(fidelities)),
                        float(np.std(fidelities))))
    prov = (f"fidelity-sweep template={tid} layers={config['layers']}->"
            f"{config['student_layers']} instances={config['instances']} "
            f"budget={config['budget']} seed={config['seed']}")
    return [_write_csv(out_dir, "fidelity.csv", prov,
                       "n_qubits,mean_fidelity,std_fidelity", summary),
            _write_csv(out_dir, "fidelity_raw.csv", prov,
                       "n_qubits,instance,fidelity", raw)]


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
    return write_manifest(out_dir, command, config, config.get("seed"),
                          artifacts, wall)


def _config_of(args) -> dict:
    """The parsed values a manifest records: all but the command and --out."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "out")}


def _command_line(command: str, config: dict) -> list:
    """The command line that records config: one --key=value per value."""
    argv = [command]
    for key, value in config.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv.append(f"--{key.replace('_', '-')}={value}")
    return argv


def run_replay(config: dict, out_dir: str):
    path = config["manifest"]
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DataError(f"malformed manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise DataError(f"malformed manifest {path}: expected an object "
                        "with a 'config' object")
    command, recorded = doc.get("command"), doc["config"]
    if not isinstance(command, str) or command not in _RUNNERS:
        raise DataError(f"manifest {path} names unknown command {command!r}")
    # keys the parser lacks, such as those of older versions, are passed over
    try:
        args, _ = _build_parser().parse_known_args(
            _command_line(command, recorded))
    except SystemExit as exc:   # argparse has already printed why
        raise DataError(f"malformed manifest {path}: its config does not "
                        f"parse as a {command} command line") from exc
    differ = [key for key, value in _config_of(args).items()
              if key not in recorded or recorded[key] != value]
    if differ:
        raise DataError(f"malformed manifest {path}: config values missing "
                        "or of the wrong type for " + ", ".join(differ))
    try:
        run_command(command, recorded, out_dir)
    except ValueError as exc:
        raise DataError(f"manifest {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    # no abbreviated options: each option has one spelling, so replay
    # passes over a manifest key that only prefixes one
    parser = argparse.ArgumentParser(
        prog="qdistill", allow_abbrev=False,
        description="Train, compress, and evaluate hybrid quantum classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, summary, seed=True):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--out", default=None,
                       help="output directory (default: $QDISTILL_OUT or .)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        return p

    def add_data(p):
        p.add_argument("--data", default="iris",
                       help="'iris' or a path to an 8-feature CSV")
        p.add_argument("--classes", type=_int_list, default=None,
                       help="3 class labels to keep from a CSV dataset")

    p = add_parser("train", "train a hybrid model")
    add_data(p)
    p.add_argument("--template", default="c6")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=None)

    p = add_parser("distill", "compress a teacher into students")
    p.add_argument("--teacher", required=True, help="teacher checkpoint JSON")
    p.add_argument("--template", default="c2")
    p.add_argument("--layers", type=_int_list, default=[1],
                   help="comma-separated student layer counts")
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seeds", type=_int_list, default=None,
                   help="annealing chain seeds (default: --seed)")
    # Ignored: seeds run in lockstep on one stacked evaluator in this
    # process.  Kept so that command lines passing --jobs and manifests
    # recording it still parse.
    p.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--polish-method", default=None,
                   choices=POLISH_METHODS)
    p.add_argument("--anneal-fraction", type=float, default=None)

    p = add_parser("finetune", "resume training from a checkpoint")
    add_data(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--epochs", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=16)

    p = add_parser("transpile-report", "per-template overhead table",
                   seed=False)
    p.add_argument("--templates", type=_str_list, default=None,
                   help="comma-separated template ids (default: all)")
    p.add_argument("--bases", type=_basis_list, default=["IBM", "Rigetti"])
    p.add_argument("--qubits", type=int, default=4)

    p = add_parser("noise-eval", "accuracy under a device profile")
    add_data(p)
    p.add_argument("--checkpoints", type=_str_list, required=True)
    p.add_argument("--profile", default="melbourne")

    p = add_parser("fidelity-sweep", "synthesis fidelity vs qubit count")
    p.add_argument("--template", default="c2")
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--student-layers", type=int, default=4)
    p.add_argument("--qubits", type=_int_list, default=[2, 3, 4, 5, 6])
    p.add_argument("--instances", type=int, default=40)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--polish-method", default="rotation-solve",
                   choices=POLISH_METHODS)
    p.add_argument("--anneal-fraction", type=float, default=0.05)

    p = add_parser("replay", "re-run a recorded manifest", seed=False)
    p.add_argument("--manifest", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_of(args)
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
