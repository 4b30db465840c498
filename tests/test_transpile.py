import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ, transpile
from qdistill.circuit import Circuit, Op
from qdistill.gates import GateKind as K


def overlap(a, b):
    return abs(np.sum(a.conj() * b)) / a.shape[0]


def test_cx_to_rigetti_exact_counts():
    c = Circuit(2, [Op(K.CX, (0, 1))])
    lowered = transpile.lower(c, "RIGETTI")
    rep = transpile.metrics(lowered)
    assert rep.gates_2q == 1
    assert rep.gates_1q == 6
    assert all(op.kind is K.CZ for op in lowered.ops if len(op.qubits) == 2)


def test_cz_to_ibm_exact_counts():
    c = Circuit(2, [Op(K.CZ, (0, 1))])
    lowered = transpile.lower(c, "IBM")
    rep = transpile.metrics(lowered)
    assert rep.gates_2q == 1
    assert rep.gates_1q == 6
    assert all(op.kind is K.CX for op in lowered.ops if len(op.qubits) == 2)


def test_lowered_gates_stay_in_basis():
    tpl = circ.build_template("c6", 4, 1)
    bound = circ.bind(tpl, np.linspace(0.1, 2.0, tpl.n_params))
    for name in ("IBM", "RIGETTI"):
        lowered = transpile.lower(bound, name)
        assert all(op.kind in transpile.BASES[name] for op in lowered.ops)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["c1", "c2", "c6", "c9", "c12", "c15"]),
       st.sampled_from(["IBM", "RIGETTI"]), st.integers(0, 1000))
def test_lowering_preserves_unitary(tid, basis, seed):
    tpl = circ.build_template(tid, 3, 1)
    rng = np.random.default_rng(seed)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    want = circ.unitary_of(bound)
    got = circ.unitary_of(transpile.lower(bound, basis))
    assert overlap(want, got) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["c2", "c6", "c15"]), st.integers(0, 1000))
def test_merge_pass_preserves_unitary(tid, seed):
    tpl = circ.build_template(tid, 3, 2)
    rng = np.random.default_rng(seed)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    want = circ.unitary_of(bound)
    for basis in ("IBM", "RIGETTI"):
        merged = transpile.lower(bound, basis, merge_1q=True)
        plain = transpile.lower(bound, basis)
        assert overlap(want, circ.unitary_of(merged)) == pytest.approx(1.0, abs=1e-8)
        assert transpile.metrics(merged).gates_1q <= transpile.metrics(plain).gates_1q


def test_lower_rejects_unbound_circuit():
    tpl = circ.build_template("c2", 3, 1)
    with pytest.raises(ValueError, match="must be bound"):
        transpile.lower(tpl, "IBM", merge_1q=True)


def test_metrics_depth_oracle():
    # H(0) then CX(0,1) then X(1): depth 3; parallel X(2) stays at depth 1
    c = Circuit(3, [Op(K.H, (0,)), Op(K.CX, (0, 1)), Op(K.X, (1,)), Op(K.X, (2,))])
    rep = transpile.metrics(c)
    assert rep.depth == 3
    assert rep.total_gates == 4
    assert rep.gates_2q == 1


def test_overhead_table_shape_and_csv():
    rows = transpile.overhead_table(["c2", "c6"], ["IBM"], 4)
    assert len(rows) == 2
    text = transpile.overhead_csv(rows, provenance="unit test")
    lines = text.strip().splitlines()
    assert lines[0] == "# unit test"
    assert lines[1] == "template,basis,depth,total,g1q,g2q"
    assert len(lines) == 4


def test_overhead_ratio_bands():
    rows = {(r["template"], r["basis"]): r
            for r in transpile.overhead_table(["c2", "c6", "c9"],
                                              ["IBM", "RIGETTI"], 4)}
    depth_ratio = rows[("c6", "IBM")]["depth"] / rows[("c2", "IBM")]["depth"]
    gate_ratio = rows[("c6", "IBM")]["total"] / rows[("c2", "IBM")]["total"]
    assert 6.0 <= depth_ratio <= 11.0
    assert 4.0 <= gate_ratio <= 7.5
    rr = rows[("c2", "RIGETTI")]["depth"] / rows[("c9", "RIGETTI")]["depth"]
    assert 1.3 <= rr <= 2.2
