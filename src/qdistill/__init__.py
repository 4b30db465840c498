"""Compressing parametric quantum classifiers by approximate synthesis.

The package covers the full pipeline: gate algebra and basis lowering
(`gates`, `transpile`), circuit templates and simulation (`circuit`),
angle encoding and scaling (`encoding`), datasets (`data`), hybrid
classifier training (`qnn`), annealing-based circuit synthesis
(`synthesis`), density-matrix noise models (`noisesim`), and a CLI
harness (`cli`).
"""

from .circuit import Circuit, Op, Param, bind, build_template, unitary_of
from .data import Dataset, load_features_csv, load_iris, stratified_split
from .encoding import (EncodingScheme, Scaler, apply_scaler, encode,
                       fit_scaler)
from .gates import GateKind, gate_matrix
from .noisesim import DeviceProfile, evaluate_noisy, load_profile, run_noisy
from .qnn import (HybridModel, TrainConfig, init_model, load_checkpoint,
                  save_checkpoint, train)
from .synthesis import (AnnealConfig, SynthesisProblem, SynthesisResult,
                        distill, synthesize)
from .transpile import CompileReport, lower, metrics, overhead_table

__version__ = "0.1.0"

__all__ = [
    "AnnealConfig", "Circuit", "CompileReport", "Dataset", "DeviceProfile",
    "EncodingScheme", "GateKind", "HybridModel", "Op", "Param", "Scaler",
    "SynthesisProblem", "SynthesisResult", "TrainConfig", "apply_scaler",
    "bind", "build_template", "distill", "encode", "evaluate_noisy",
    "fit_scaler", "gate_matrix", "init_model", "load_checkpoint",
    "load_features_csv", "load_iris", "load_profile", "lower", "metrics",
    "overhead_table", "run_noisy", "save_checkpoint", "stratified_split",
    "synthesize", "train", "unitary_of",
]
