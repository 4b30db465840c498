import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import cli, noisesim, qnn


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("train"))
    rc = run(["train", "--data", "iris", "--template", "c2", "--layers", "1",
              "--epochs", "2", "--seed", "7", "--out", d])
    assert rc == 0
    return d


def test_train_artifacts(trained_dir):
    names = sorted(os.listdir(trained_dir))
    assert "c2_1l_seed7.json" in names
    assert "c2_1l_seed7_history.csv" in names
    assert "manifest.json" in names
    with open(os.path.join(trained_dir, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["command"] == "train"
    assert man["seed"] == 7
    for rel in man["artifacts"]:
        assert os.path.exists(os.path.join(trained_dir, rel))
    hist = open(os.path.join(trained_dir, "c2_1l_seed7_history.csv")).read()
    lines = hist.strip().splitlines()
    assert lines[0].startswith("# train ")
    assert lines[1] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert len(lines) == 2 + 3   # epoch 0 plus 2 training epochs


def test_train_rerun_is_bit_identical(trained_dir, tmp_path):
    d2 = str(tmp_path / "again")
    rc = run(["train", "--data", "iris", "--template", "c2", "--layers", "1",
              "--epochs", "2", "--seed", "7", "--out", d2])
    assert rc == 0
    for name in ("c2_1l_seed7.json", "c2_1l_seed7_history.csv"):
        a = open(os.path.join(trained_dir, name), "rb").read()
        b = open(os.path.join(d2, name), "rb").read()
        assert a == b


def test_distill_and_replay_round_trip(trained_dir, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    teacher = os.path.join(trained_dir, "c2_1l_seed7.json")
    rc = run(["distill", "--teacher", teacher, "--template", "c2",
              "--layers", "1", "--budget", "300", "--seeds", "0,1",
              "--out", d1])
    assert rc == 0
    rc = run(["replay", "--manifest", os.path.join(d1, "manifest.json"),
              "--out", d2])
    assert rc == 0
    for name in ("student_c2_1l.json", "distances.csv"):
        assert (open(os.path.join(d1, name), "rb").read()
                == open(os.path.join(d2, name), "rb").read())
    doc = json.load(open(os.path.join(d1, "student_c2_1l.json")))
    assert doc["fine_tuned"] is False


_REPLAY_ARGS = {
    "train": ["--template", "c2", "--layers", "1", "--epochs", "1",
              "--seed", "3"],
    "distill": ["--teacher", "{teacher}", "--template", "c2", "--layers", "1",
                "--budget", "100"],
    "finetune": ["--checkpoint", "{teacher}", "--epochs", "1"],
    "transpile-report": ["--templates", "c2,c6", "--qubits", "3"],
    "noise-eval": ["--checkpoints", "{teacher}", "--profile", "almaden"],
    "fidelity-sweep": ["--qubits", "2", "--instances", "1", "--budget", "50",
                       "--layers", "1", "--student-layers", "1"],
}


@pytest.mark.parametrize("command", sorted(_REPLAY_ARGS))
def test_replay_reproduces_every_artifact(trained_dir, tmp_path, command):
    d1, d2 = tmp_path / "run", tmp_path / "replay"
    teacher = os.path.join(trained_dir, "c2_1l_seed7.json")
    args = [a.format(teacher=teacher) for a in _REPLAY_ARGS[command]]
    assert run([command, *args, "--out", str(d1)]) == 0
    assert run(["replay", "--manifest", str(d1 / "manifest.json"),
                "--out", str(d2)]) == 0
    first = json.loads((d1 / "manifest.json").read_text())
    again = json.loads((d2 / "manifest.json").read_text())
    assert again["config"] == first["config"]
    assert again["artifacts"] == first["artifacts"]
    for name in first["artifacts"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_finetune_reports_recovery_columns(trained_dir, tmp_path):
    d = str(tmp_path / "ft")
    ckpt = os.path.join(trained_dir, "c2_1l_seed7.json")
    rc = run(["finetune", "--checkpoint", ckpt, "--data", "iris",
              "--epochs", "1", "--out", d])
    assert rc == 0
    text = open(os.path.join(d, "c2_1l_seed7_ft_report.csv")).read()
    lines = text.strip().splitlines()
    assert lines[1] == "split,approx_acc,finetuned_acc"
    assert lines[2].startswith("train,")
    assert lines[3].startswith("val,")
    doc = json.load(open(os.path.join(d, "c2_1l_seed7_ft.json")))
    assert doc["fine_tuned"] is True


def test_distill_seeds_default_to_its_seed(trained_dir, tmp_path):
    d1, d2 = tmp_path / "run", tmp_path / "replay"
    teacher = os.path.join(trained_dir, "c2_1l_seed7.json")
    assert run(["distill", "--teacher", teacher, "--template", "c2",
                "--layers", "1", "--budget", "100", "--seed", "5",
                "--out", str(d1)]) == 0
    lines = (d1 / "distances.csv").read_text().splitlines()
    assert lines[0].endswith(" seeds=5")
    assert lines[2].split(",")[-1] == "5"
    assert json.loads((d1 / "manifest.json").read_text())["seed"] == 5
    assert run(["replay", "--manifest", str(d1 / "manifest.json"),
                "--out", str(d2)]) == 0
    for name in ("student_c2_1l.json", "distances.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_finetune_report_is_the_training_history(trained_dir, tmp_path,
                                                 monkeypatch):
    # the report's columns are epoch 0 and the last epoch of the history;
    # finetune never scores the model separately
    def no_evaluate(*args):
        raise AssertionError("finetune called qnn.evaluate")

    monkeypatch.setattr(qnn, "evaluate", no_evaluate)
    d = tmp_path / "ft"
    ckpt = os.path.join(trained_dir, "c2_1l_seed7.json")
    assert run(["finetune", "--checkpoint", ckpt, "--epochs", "2",
                "--out", str(d)]) == 0
    history = json.loads((d / "c2_1l_seed7_ft.json").read_text())["history"]
    lines = (d / "c2_1l_seed7_ft_report.csv").read_text().splitlines()[2:]
    assert lines == [f"{split},{history[0][split + '_acc']!r},"
                     f"{history[-1][split + '_acc']!r}"
                     for split in ("train", "val")]


def test_transpile_report_rows(tmp_path):
    d = str(tmp_path)
    rc = run(["transpile-report", "--qubits", "4", "--out", d])
    assert rc == 0
    lines = open(os.path.join(d, "overhead.csv")).read().strip().splitlines()
    # 6 templates x 2 bases plus comment and header
    assert len(lines) == 2 + 12
    assert lines[0].startswith("# transpile-report")
    assert lines[1] == "template,basis,depth,total,g1q,g2q"


def test_transpile_report_records_no_seed(tmp_path, capsys):
    # it draws no random numbers, so it takes no --seed and records null
    assert run(["transpile-report", "--qubits", "2",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["seed"] is None and "seed" not in doc["config"]
    for command in (["transpile-report"], ["replay", "--manifest", "m.json"]):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--seed", "1", "--out", str(tmp_path)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_options_cannot_be_abbreviated(tmp_path, capsys):
    # a typed abbreviation is a usage error, and a manifest key that only
    # prefixes an option is passed over like any key the parser lacks
    with pytest.raises(SystemExit) as exc:
        run(["transpile-report", "--qub", "2", "--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments: --qub" in capsys.readouterr().err
    d1, d2 = tmp_path / "run", tmp_path / "replay"
    assert run(["transpile-report", "--qubits", "2", "--out", str(d1)]) == 0
    doc = json.loads((d1 / "manifest.json").read_text())
    doc["config"]["qu"] = 3
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert run(["replay", "--manifest", str(path), "--out", str(d2)]) == 0
    assert (d1 / "overhead.csv").read_bytes() == (d2 / "overhead.csv").read_bytes()


def test_fidelity_sweep_small(tmp_path):
    d = str(tmp_path)
    rc = run(["fidelity-sweep", "--qubits", "2", "--instances", "2",
              "--budget", "200", "--out", d])
    assert rc == 0
    lines = open(os.path.join(d, "fidelity.csv")).read().strip().splitlines()
    assert lines[1] == "n_qubits,mean_fidelity,std_fidelity"
    n, mean, std = lines[2].split(",")
    assert n == "2"
    assert 0.0 <= float(mean) <= 1.0


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["distill"])            # missing required --teacher
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:     # a removed polish method
        run(["distill", "--teacher", "t.json", "--polish-method", "powell"])
    assert exc.value.code == 2
    assert "invalid choice: 'powell'" in capsys.readouterr().err


_EMPTY_LISTS = {
    "distill --seeds": ["distill", "--teacher", "t.json", "--seeds", ""],
    "distill --layers": ["distill", "--teacher", "t.json", "--layers", ""],
    "fidelity-sweep --qubits": ["fidelity-sweep", "--qubits", ""],
    "noise-eval --checkpoints": ["noise-eval", "--checkpoints", ""],
    "transpile-report --bases": ["transpile-report", "--bases", ""],
}


@pytest.mark.parametrize("case", sorted(_EMPTY_LISTS))
def test_empty_list_is_a_usage_error(tmp_path, capsys, case):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*_EMPTY_LISTS[case], "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "expected a non-empty list: ''" in capsys.readouterr().err
    assert not out.exists()


_REPEATED_LISTS = {
    # each would repeat its work: one checkpoint written twice, two
    # identical chains, one sweep or overhead row twice, one checkpoint's
    # noisy evaluation twice; a basis is read in any case
    "distill --layers": ["--layers", "1,1", "--seeds", "0", "--budget", "80"],
    "distill --seeds": ["--layers", "1", "--seeds", "3,3", "--budget", "80"],
    "fidelity-sweep --qubits": ["--qubits", "2,2", "--instances", "1",
                                "--budget", "80"],
    "noise-eval --checkpoints": ["--checkpoints", "a.json,a.json"],
    "transpile-report --bases": ["--bases", "IBM,IBM"],
    "transpile-report --bases in two cases": ["--bases", "IBM,ibm"],
    "transpile-report --templates": ["--templates", "c2,c2"],
}


@pytest.mark.parametrize("case", sorted(_REPEATED_LISTS))
def test_repeated_list_value_is_a_usage_error(trained_dir, tmp_path, capsys,
                                              case):
    command = case.split()[0]
    given = ["--teacher", os.path.join(trained_dir, "c2_1l_seed7.json")] \
        if command == "distill" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, *given, *_REPEATED_LISTS[case], "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "expected distinct" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_with_repeated_seeds_exits_3(trained_dir, tmp_path, capsys):
    # a recorded repeat in an integer and in a name list, and a basis
    # recorded in two cases
    teacher = os.path.join(trained_dir, "c2_1l_seed7.json")
    for i, (argv, key, repeat) in enumerate([
            (["distill", "--teacher", teacher, "--layers", "1", "--budget",
              "80", "--seeds", "3,4"], "seeds", [3, 3]),
            (["transpile-report", "--templates", "c2", "--qubits", "2"],
             "templates", ["c2", "c2"]),
            (["transpile-report", "--templates", "c2", "--qubits", "2"],
             "bases", ["IBM", "ibm"])]):
        d1, d2 = tmp_path / f"run{i}", tmp_path / f"replay{i}"
        assert run([*argv, "--out", str(d1)]) == 0
        doc = json.loads((d1 / "manifest.json").read_text())
        doc["config"][key] = repeat
        path = tmp_path / f"manifest{i}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = run(["replay", "--manifest", str(path), "--out", str(d2)])
        _assert_data_error(rc, capsys, path)
        assert not d2.exists() or os.listdir(d2) == []


@pytest.mark.parametrize("command", ["train", "distill", "transpile-report",
                                     "fidelity-sweep"])
def test_unknown_template_is_a_usage_error(trained_dir, tmp_path, capsys,
                                           command):
    args = {"train": ["--template", "c77", "--epochs", "1"],
            "distill": ["--teacher",
                        os.path.join(trained_dir, "c2_1l_seed7.json"),
                        "--template", "c77"],
            "transpile-report": ["--templates", "c77"],
            "fidelity-sweep": ["--template", "c77"]}[command]
    rc = run([command, *args, "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "unknown template 'c77'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "manifest.json")


def test_epoch_zero_rejected(tmp_path):
    rc = run(["train", "--data", "iris", "--epochs", "0",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE


@pytest.mark.parametrize("batch", ["0", "-1"])
@pytest.mark.parametrize("command", ["train", "finetune"])
def test_bad_batch_size_exits_2(trained_dir, tmp_path, capsys, command,
                                batch):
    args = (["--template", "c1", "--layers", "1"] if command == "train" else
            ["--checkpoint", os.path.join(trained_dir, "c2_1l_seed7.json")])
    rc = run([command, *args, "--epochs", "2", "--batch-size", batch,
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    want = f"batch size must be >= 1 (or None for the full batch), got {batch}"
    assert want in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "manifest.json")


def test_fidelity_sweep_rejects_zero_instances(tmp_path, capsys):
    rc = run(["fidelity-sweep", "--qubits", "2", "--instances", "0",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "instances must be >= 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "fidelity.csv")


def test_fidelity_sweep_rejects_dense_size_above_limit(tmp_path, capsys):
    # refused before the 8192 x 8192 identity is allocated
    rc = run(["fidelity-sweep", "--qubits", "13", "--instances", "1",
              "--layers", "1", "--student-layers", "1",
              "--out", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert "circuit.MAX_DIM = 4096" in capsys.readouterr().err


def test_non_finite_training_exits_4(tmp_path, capsys, monkeypatch):
    real_train = qnn.train

    def nan_theta(*args):
        model, history = real_train(*args)
        model.theta = np.full_like(model.theta, np.nan)
        return model, history

    monkeypatch.setattr(qnn, "train", nan_theta)
    out = tmp_path / "out"
    rc = run(["train", "--template", "c1", "--layers", "1", "--epochs", "1",
              "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERIC
    assert "Traceback" not in err and "not finite" in err
    assert os.listdir(out) == []


def test_data_errors_exit_3(tmp_path):
    d = str(tmp_path)
    assert run(["distill", "--teacher", "/does/not/exist.json",
                "--out", d]) == cli.EXIT_DATA
    assert run(["train", "--data", "/does/not/exist.csv", "--out", d]) \
        == cli.EXIT_DATA
    assert run(["replay", "--manifest", "/does/not/exist.json",
                "--out", d]) == cli.EXIT_DATA
    assert run(["finetune", "--checkpoint", "/does/not/exist.json",
                "--out", d]) == cli.EXIT_DATA
    assert run(["noise-eval", "--checkpoints", "/does/not/exist.json",
                "--out", d]) == cli.EXIT_DATA


def _csv_rows(labels):
    return "".join(f"{c}.5,1,2,3,4,5,6,7,{c}\n" for c in labels)


_CSV_HEADER = ",".join(f"f{i}" for i in range(8)) + ",label\n"
_CSV_ROWS = _csv_rows((0, 1, 2))
_BAD_CSVS = {
    "bad_header": _CSV_HEADER.replace("f3", "g3") + _CSV_ROWS,
    "non_numeric_value": _CSV_HEADER + _CSV_ROWS.replace("1,2,3", "1,x,3", 1),
    "four_features": "f0,f1,f2,f3,label\n1,2,3,4,0\n1,2,3,4,1\n1,2,3,4,2\n",
    "no_requested_class": _CSV_HEADER + _csv_rows((5, 6, 7)),
    "nan_value": _CSV_HEADER + _CSV_ROWS.replace("1,2,3", "1,nan,3", 1),
    "inf_value": _CSV_HEADER + _CSV_ROWS.replace("5,6,7", "5,-inf,7", 1),
}


@pytest.mark.filterwarnings("ignore:class .* missing")
@pytest.mark.parametrize("case", sorted(_BAD_CSVS))
def test_malformed_dataset_exits_3(tmp_path, capsys, case):
    path = tmp_path / "bad.csv"
    path.write_text(_BAD_CSVS[case])
    out = tmp_path / "out"
    rc = run(["train", "--data", str(path), "--classes", "0,1,2",
              "--out", str(out)])
    _assert_data_error(rc, capsys, path)
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.filterwarnings("ignore:class .* has only")
@pytest.mark.filterwarnings("ignore:constant feature")
def test_eight_feature_csv_runs_and_replays(tmp_path):
    # the CSV path end to end: an 8-feature dataset takes the 2:1 encoding
    data = tmp_path / "eight.csv"
    data.write_text(_CSV_HEADER + _CSV_ROWS * 5)
    dataset = ["--data", str(data), "--classes", "0,1,2"]
    run_dirs = [tmp_path / f"run{i}" for i in range(4)]
    steps = [
        ["train", *dataset, "--template", "c2", "--layers", "1",
         "--epochs", "1"],
        ["distill", "--teacher", str(run_dirs[0] / "c2_1l_seed0.json"),
         "--template", "c2", "--layers", "1", "--budget", "100"],
        ["finetune", *dataset, "--checkpoint",
         str(run_dirs[1] / "student_c2_1l.json"), "--epochs", "1"],
        ["noise-eval", *dataset, "--checkpoints",
         str(run_dirs[2] / "student_c2_1l_ft.json")],
    ]
    for d, argv in zip(run_dirs, steps):
        assert run([*argv, "--out", str(d)]) == 0
        again = d.with_name(d.name + "_replay")
        assert run(["replay", "--manifest", str(d / "manifest.json"),
                    "--out", str(again)]) == 0
        for name in json.loads((d / "manifest.json").read_text())["artifacts"]:
            assert (d / name).read_bytes() == (again / name).read_bytes()
    ckpt = json.loads((run_dirs[2] / "student_c2_1l_ft.json").read_text())
    assert ckpt["encoding_mode"] == "2:1"
    rows = (run_dirs[3] / "noise_eval.csv").read_text().splitlines()
    assert "rows=15,split=12/3" in rows[0] and len(rows) == 2 + 2


@pytest.mark.filterwarnings("ignore:class .* has only")
@pytest.mark.filterwarnings("ignore:constant feature")
def test_empty_validation_split_writes_no_nan_accuracy(tmp_path):
    # 2 rows per class split 6/0: a split with no rows gets no accuracy row
    data = tmp_path / "six.csv"
    data.write_text(_CSV_HEADER + _CSV_ROWS * 2)
    dataset = ["--data", str(data), "--classes", "0,1,2"]
    train = tmp_path / "train"
    assert run(["train", *dataset, "--template", "c2", "--layers", "1",
                "--epochs", "1", "--out", str(train)]) == 0
    ckpt = str(train / "c2_1l_seed0.json")
    steps = {"finetune": ["finetune", *dataset, "--checkpoint", ckpt,
                          "--epochs", "1"],
             "noise-eval": ["noise-eval", *dataset, "--checkpoints", ckpt]}
    for name, argv in steps.items():
        d, again = tmp_path / name, tmp_path / f"{name}_replay"
        assert run([*argv, "--out", str(d)]) == 0
        assert run(["replay", "--manifest", str(d / "manifest.json"),
                    "--out", str(again)]) == 0
        artifacts = json.loads((d / "manifest.json").read_text())["artifacts"]
        for art in artifacts:
            assert (d / art).read_bytes() == (again / art).read_bytes()
        report = next(a for a in artifacts if a.endswith(".csv"))
        lines = (d / report).read_text().splitlines()
        assert "split=6/0" in lines[0]
        table = [dict(zip(lines[1].split(","), line.split(",")))
                 for line in lines[2:]]
        assert [row["split"] for row in table] == ["train"]
        assert all(cell != "nan" for row in table for cell in row.values())


def test_classes_count_is_a_usage_error(tmp_path):
    path = tmp_path / "good.csv"
    path.write_text(_CSV_HEADER + _CSV_ROWS)
    for classes in (["--classes", "0,1"], []):
        rc = run(["train", "--data", str(path), *classes,
                  "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE


def test_duplicate_classes_is_a_usage_error(tmp_path, capsys):
    # 0,1,1 would train on every class-1 row twice, labelled 1 and 2
    path = tmp_path / "good.csv"
    path.write_text(_CSV_HEADER + _CSV_ROWS)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["train", "--data", str(path), "--classes", "0,1,1",
             "--epochs", "1", "--out", str(out)])
    assert exc.value.code == cli.EXIT_USAGE
    assert "expected distinct ints: '0,1,1'" in capsys.readouterr().err
    assert not out.exists()


def test_classes_with_iris_is_a_usage_error(tmp_path):
    out = tmp_path / "out"
    rc = run(["train", "--data", "iris", "--classes", "7,8,9", "--epochs", "1",
              "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    assert not (out / "manifest.json").exists()


# run in a fresh interpreter: the command lines come in as a JSON list in
# argv[1], and the exit codes go out as a JSON list on stdout's last line
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None   # every import of scipy now raises ImportError
import qdistill
from qdistill import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    d = str(tmp_path)
    student = f"{d}/distill/student_c2_1l.json"
    commands = [
        ["train", "--template", "c2", "--layers", "1", "--epochs", "1",
         "--out", f"{d}/train"],
        ["distill", "--teacher", f"{d}/train/c2_1l_seed0.json",
         "--template", "c2", "--polish-method", "grad-lbfgs",
         "--budget", "60", "--out", f"{d}/distill"],
        ["finetune", "--checkpoint", student, "--epochs", "1",
         "--out", f"{d}/finetune"],
        ["noise-eval", "--checkpoints", student, "--out", f"{d}/noise"],
        ["fidelity-sweep", "--qubits", "2", "--instances", "1",
         "--budget", "60", "--out", f"{d}/sweep"],
        ["transpile-report", "--out", f"{d}/transpile"],
        ["replay", "--manifest", f"{d}/distill/manifest.json",
         "--out", f"{d}/replay"],
    ]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _WITHOUT_SCIPY,
         json.dumps(commands)],
        env=env, cwd=d, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == [0] * len(commands)


_BAD_CHECKPOINTS = {
    "unknown_template": lambda doc: {**doc, "template_id": "c99"},
    "non_numeric_theta": lambda doc: {**doc, "theta": ["x"] * len(doc["theta"])},
    "layers_not_int": lambda doc: {**doc, "layers": "two"},
    "top_level_list": lambda doc: [doc],
    # JSON's NaN and Infinity parse as floats; the loader rejects them
    "nan_theta": lambda doc: {**doc, "theta": [math.nan] + doc["theta"][1:]},
    "inf_W": lambda doc: {**doc, "W": [[math.inf] + doc["W"][0][1:]]
                          + doc["W"][1:]},
    "nan_b": lambda doc: {**doc, "b": [math.nan] + doc["b"][1:]},
    "inf_scaler": lambda doc: {**doc, "scaler": {
        **doc["scaler"], "maxs": [math.inf] + doc["scaler"]["maxs"][1:]}},
    # three scaler entries for the 1:1 encoding's four features
    "short_scaler": lambda doc: {**doc, "scaler": {
        **doc["scaler"], "mins": doc["scaler"]["mins"][:3]}},
}
_GOOD_PROFILE = dataclasses.asdict(noisesim.load_profile("melbourne"))
_BAD_PROFILES = {
    "unknown_key": {**_GOOD_PROFILE, "colour": "red"},
    "missing_keys": {"name": "half"},
    "top_level_list": [_GOOD_PROFILE],
    "zero_t1_t2": {**_GOOD_PROFILE, "t1_us": 0, "t2_us": 0},
    "zero_t2": {**_GOOD_PROFILE, "t2_us": 0},
    "negative_t1": {**_GOOD_PROFILE, "t1_us": -56.07},
    "unknown_basis": {**_GOOD_PROFILE, "basis": "FOO"},
}


def _assert_data_error(rc, capsys, path):
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert "Traceback" not in err
    assert str(path) in err


@pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINTS))
@pytest.mark.parametrize("command", ["distill", "finetune", "noise-eval"])
def test_malformed_checkpoint_exits_3(trained_dir, tmp_path, capsys, command,
                                      case):
    with open(os.path.join(trained_dir, "c2_1l_seed7.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_BAD_CHECKPOINTS[case](doc)))
    flag = {"distill": "--teacher", "finetune": "--checkpoint",
            "noise-eval": "--checkpoints"}[command]
    rc = run([command, flag, str(path), "--out", str(tmp_path / "out")])
    _assert_data_error(rc, capsys, path)


@pytest.mark.filterwarnings("ignore:class .* has only")
@pytest.mark.parametrize("command", ["finetune", "noise-eval"])
def test_feature_count_mismatch_exits_3(trained_dir, tmp_path, capsys,
                                        command):
    # an 8-feature dataset against a checkpoint of the 1:1 (4-feature) scheme
    data = tmp_path / "eight.csv"
    data.write_text(_CSV_HEADER + _CSV_ROWS)
    ckpt = os.path.join(trained_dir, "c2_1l_seed7.json")
    flag = {"finetune": "--checkpoint", "noise-eval": "--checkpoints"}[command]
    out = tmp_path / "out"
    rc = run([command, flag, ckpt, "--data", str(data), "--classes", "0,1,2",
              "--out", str(out)])
    _assert_data_error(rc, capsys, ckpt)
    assert not (out / "manifest.json").exists()


def test_teacher_above_dense_limit_exits_3(trained_dir, tmp_path, capsys):
    # a 13-qubit teacher loads, but its unitary is above circuit.MAX_DIM
    with open(os.path.join(trained_dir, "c2_1l_seed7.json")) as fh:
        doc = json.load(fh)
    n = 13
    doc.update(n_qubits=n, theta=[0.1] * (2 * n), W=[[0.0] * n] * 3,
               scaler={"mins": [0.0] * n, "maxs": [1.0] * n})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = run(["distill", "--teacher", str(path), "--template", "c2",
              "--layers", "1", "--budget", "10", "--out", str(out)])
    _assert_data_error(rc, capsys, path)
    assert not (out / "manifest.json").exists()


def test_finetune_rejects_second_axis_other_than_ry(trained_dir, tmp_path,
                                                    capsys):
    # the 2:1 encoding's second rotation is RY, so a checkpoint naming RX
    # is malformed, whatever its own encoding
    with open(os.path.join(trained_dir, "c2_1l_seed7.json")) as fh:
        doc = json.load(fh)
    path = tmp_path / "rx.json"
    path.write_text(json.dumps({**doc, "second_axis": "RX"}))
    rc = run(["finetune", "--checkpoint", str(path),
              "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_DATA
    assert "Traceback" not in err
    assert str(path) in err and "second_axis" in err


@pytest.mark.parametrize("case", sorted(_BAD_PROFILES))
def test_malformed_profile_exits_3(trained_dir, tmp_path, capsys, case):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(_BAD_PROFILES[case]))
    rc = run(["noise-eval", "--profile", str(path), "--checkpoints",
              os.path.join(trained_dir, "c2_1l_seed7.json"),
              "--out", str(tmp_path / "out")])
    _assert_data_error(rc, capsys, path)


_SWEEP_CONFIG = {"template": "c2", "layers": 1, "student_layers": 1,
                 "qubits": [2], "instances": 1, "budget": 50,
                 "polish_method": "rotation-solve", "anneal_fraction": 0.05,
                 "seed": 0}
_BAD_MANIFESTS = {
    "top_level_list": [{"command": "fidelity-sweep", "config": _SWEEP_CONFIG}],
    "config_list": {"command": "fidelity-sweep", "config": []},
    "config_without_seed": {"command": "fidelity-sweep", "config": {
        k: v for k, v in _SWEEP_CONFIG.items() if k != "seed"}},
    "removed_polish_method": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "polish_method": "nelder-mead"}},
    "seed_not_int": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "seed": "x"}},
    "qubits_not_list": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "qubits": 5}},
    "qubits_empty": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "qubits": []}},
    "not_json": "this is not JSON",   # written as raw text
    "command_list": {"command": ["fidelity-sweep"], "config": _SWEEP_CONFIG},
    # values that parse but that the subcommand rejects
    "unknown_template": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "template": "c77"}},
    "zero_layers": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "layers": 0}},
    "one_qubit": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "qubits": [1]}},
    "zero_budget": {"command": "fidelity-sweep", "config": {
        **_SWEEP_CONFIG, "budget": 0}},
    "unknown_templates": {"command": "transpile-report", "config": {
        "templates": ["c77"], "bases": ["IBM"], "qubits": 2, "seed": 0}},
}


@pytest.mark.parametrize("case", sorted(_BAD_MANIFESTS))
def test_malformed_manifest_fails_cleanly(tmp_path, capsys, case):
    path = tmp_path / "manifest.json"
    doc = _BAD_MANIFESTS[case]
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = run(["replay", "--manifest", str(path), "--out", str(tmp_path / "o")])
    _assert_data_error(rc, capsys, path)


def test_well_typed_manifest_replays(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"command": "fidelity-sweep",
                                "config": _SWEEP_CONFIG}))
    out = tmp_path / "o"
    assert run(["replay", "--manifest", str(path), "--out", str(out)]) == 0
    assert os.path.exists(out / "fidelity.csv")


_REPLAY_CONFIGS = {
    "fidelity-sweep": {**_SWEEP_CONFIG, "budget": 40},
    "transpile-report": {"templates": None, "bases": ["IBM", "Rigetti"],
                         "qubits": 2, "seed": 0},
}
_MISSING = object()
_REPLAY_VALUES = [_MISSING, None, "x", "", [], -1, 0, 1.5, math.nan, "c77",
                  ["c77"], [1], True]


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_REPLAY_CONFIGS)), data=st.data())
def test_replay_of_any_config_value_exits_0_or_3(command, data):
    # every value in a replay comes from the manifest, so a bad one is a
    # data error, never a usage error or a traceback; a key the parser
    # lacks is passed over
    config = dict(_REPLAY_CONFIGS[command])
    key = data.draw(st.sampled_from(sorted(config) + ["colour"]), label="key")
    value = data.draw(st.sampled_from(_REPLAY_VALUES), label="value")
    if value is _MISSING:
        config.pop(key, None)
    else:
        config[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w") as fh:
            json.dump({"command": command, "config": config}, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = run(["replay", "--manifest", path, "--out", out])
        assert rc in (cli.EXIT_OK, cli.EXIT_DATA)
        assert "Traceback" not in err.getvalue()
        if rc == cli.EXIT_DATA:
            assert path in err.getvalue()
            assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_distill_manifest_with_jobs_replays_in_process(trained_dir, tmp_path,
                                                      capsys, monkeypatch):
    # --jobs is still accepted, as older command lines and manifests carry
    # it, but it is not offered and every seed runs in this process
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("distill started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit):
        run(["distill", "--help"])
    assert "--jobs" not in capsys.readouterr().out
    d1, d2 = tmp_path / "run", tmp_path / "replay"
    teacher = os.path.join(trained_dir, "c2_1l_seed7.json")
    assert run(["distill", "--teacher", teacher, "--template", "c2",
                "--layers", "1", "--budget", "100", "--seeds", "0,1",
                "--jobs", "1", "--out", str(d1)]) == 0
    doc = json.loads((d1 / "manifest.json").read_text())
    assert doc["config"]["jobs"] == 1
    doc["config"]["jobs"] = 2
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(doc))
    assert run(["replay", "--manifest", str(old), "--out", str(d2)]) == 0
    for name in doc["artifacts"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class _ReadRecorder(dict):
    """A config dict that records which of its keys are read."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", sorted(_REPLAY_ARGS))
def test_every_parsed_option_is_read(trained_dir, tmp_path, command):
    # an option the run never reads would be recorded in its manifest as
    # if it had shaped the run; --jobs is hidden and kept only for parsing
    teacher = os.path.join(trained_dir, "c2_1l_seed7.json")
    args = [a.format(teacher=teacher) for a in _REPLAY_ARGS[command]]
    config = _ReadRecorder(cli._config_of(
        cli._build_parser().parse_args([command, *args])))
    cli._RUNNERS[command](config, str(tmp_path))
    assert sorted(set(config) - config.read - {"jobs"}) == []


def test_env_var_default_out(tmp_path, monkeypatch, trained_dir):
    d = str(tmp_path / "envout")
    monkeypatch.setenv("QDISTILL_OUT", d)
    rc = run(["transpile-report", "--qubits", "4"])
    assert rc == 0
    assert os.path.exists(os.path.join(d, "overhead.csv"))
