import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdistill import circuit as circ, data, encoding, noisesim, qnn
from qdistill.circuit import Circuit, Op
from qdistill.gates import GateKind as K, gate_matrix
from qdistill.transpile import lower


MELBOURNE = noisesim.load_profile("melbourne")
ALMADEN = noisesim.load_profile("almaden")


def test_bundled_profiles_load():
    assert MELBOURNE.name == "melbourne"
    assert ALMADEN.name == "almaden"
    assert MELBOURNE.err_2q > MELBOURNE.err_1q


def test_profile_validation():
    with pytest.raises(ValueError):
        noisesim.DeviceProfile("bad", 1.5, 0.0, 50.0, 50.0, 50.0, 300.0, 0.0)
    with pytest.raises(ValueError):
        noisesim.DeviceProfile("bad", 0.0, 0.0, 10.0, 50.0, 50.0, 300.0, 0.0)
    with pytest.raises(ValueError):
        noisesim.DeviceProfile("bad", 0.0, 0.0, 50.0, 50.0, 0.0, 300.0, 0.0)
    # relaxation times must be positive (inf, no relaxation, is allowed)
    for t1, t2, field in ((0.0, 0.0, "t1_us"), (50.0, 0.0, "t2_us"),
                          (-50.0, 50.0, "t1_us"), (math.nan, 1.0, "t1_us")):
        with pytest.raises(ValueError, match=field):
            noisesim.DeviceProfile("bad", 0.0, 0.0, t1, t2, 50.0, 300.0, 0.0)
    assert noisesim.zero_noise_profile().t1_us == math.inf


def test_profile_dict_round_trip():
    back = noisesim.DeviceProfile(**dataclasses.asdict(MELBOURNE))
    assert back == MELBOURNE


def test_all_kraus_sets_cptp():
    for ks in (noisesim.depolarizing_kraus_1q(0.3),
               noisesim.depolarizing_kraus_2q(0.2),
               noisesim.amplitude_damping_kraus(0.4),
               noisesim.phase_damping_kraus(0.25),
               MELBOURNE.relaxation_kraus(500.0)):
        noisesim.assert_cptp(ks, tol=1e-10)


def test_assert_cptp_rejects_broken_set():
    with pytest.raises(ValueError):
        noisesim.assert_cptp([np.eye(2) * 0.9])


def test_depolarizing_fixed_point_is_maximally_mixed():
    rho = np.diag([1.0, 0.0]).astype(complex)
    ks = noisesim.depolarizing_kraus_1q(1.0)
    out = noisesim.apply_kraus(rho, ks, (0,), 1)
    assert np.allclose(out, np.eye(2) / 2)


def test_amplitude_damping_decays_excited_state():
    rho = np.diag([0.0, 1.0]).astype(complex)   # |1><1|
    out = noisesim.apply_kraus(rho, noisesim.amplitude_damping_kraus(0.3),
                               (0,), 1)
    assert out[0, 0] == pytest.approx(0.3)
    assert out[1, 1] == pytest.approx(0.7)


def test_zero_noise_matches_ideal_statevector():
    tpl = circ.build_template("c15", 3, 2)
    rng = np.random.default_rng(0)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    rho = noisesim.run_noisy(bound, noisesim.zero_noise_profile())
    psi = circ.unitary_of(bound)[:, 0]
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-9)


def test_noisy_execution_requires_bound_circuit():
    tpl = circ.build_template("c2", 2, 1)
    with pytest.raises(ValueError):
        noisesim.run_noisy(tpl, MELBOURNE)


def test_purity_decreases_under_idling_noise():
    c = Circuit(1, [Op(K.X, (0,))] * 6)
    rho = noisesim.run_noisy(c, MELBOURNE)
    assert noisesim.purity(rho) < 1.0 - 1e-6
    # pure run keeps purity
    rho0 = noisesim.run_noisy(c, noisesim.zero_noise_profile())
    assert noisesim.purity(rho0) == pytest.approx(1.0, abs=1e-10)


def _populations_z(rho, n):
    """Per-qubit <Z> of a density matrix from the sign table."""
    return np.real(np.diagonal(rho)) @ circ.z_signs(n)


def test_z_expectation_sign_convention():
    rho = noisesim.zero_density(2)
    assert _populations_z(rho, 2) == pytest.approx([1.0, 1.0])
    flipped = noisesim.run_noisy(Circuit(2, [Op(K.X, (1,))]),
                                 noisesim.zero_noise_profile())
    assert _populations_z(flipped, 2) == pytest.approx([1.0, -1.0])


def test_readout_error_shrinks_expectation():
    # readout error alone scales every noise-free <Z> by 1 - 2 meas_err
    readout_only = dataclasses.replace(noisesim.zero_noise_profile(),
                                       meas_err=MELBOURNE.meas_err)
    model = qnn.init_model("c2", 1, encoding.EncodingScheme("1:1", 4), seed=1)
    rows = np.random.default_rng(2).uniform(-math.pi, math.pi, (5, 4))
    z = noisesim.noisy_z_features(model, rows, readout_only)
    raw = noisesim.noisy_z_features(model, rows,
                                    noisesim.zero_noise_profile())
    assert np.allclose(z, (1 - 2 * MELBOURNE.meas_err) * raw, atol=1e-12)


def test_single_x_gate_z_oracle():
    # one lowered X on melbourne: depolarizing + relaxation + readout flip
    c = Circuit(1, [Op(K.X, (0,))])
    rho = noisesim.run_noisy(c, MELBOURNE)
    z = (1 - 2 * MELBOURNE.meas_err) * _populations_z(rho, 1)[0]
    assert -1.0 < z < -0.85
    assert z == pytest.approx(-0.884309, abs=1e-5)


def test_evaluate_noisy_zero_noise_equals_ideal():
    ds = data.load_iris(seed=0)
    scheme = encoding.EncodingScheme("1:1", 4)
    scaler = encoding.fit_scaler(ds.train_features)
    model = qnn.init_model("c15", 2, scheme, seed=1, scaler=scaler)
    x, y = ds.val_features[:10], ds.val_labels[:10]
    ideal = qnn.evaluate(model, x, y)
    noiseless = noisesim.evaluate_noisy(model, x, y,
                                        noisesim.zero_noise_profile())
    assert noiseless == pytest.approx(ideal, abs=1e-9)


def test_compose_kraus_drops_zero_products():
    ks = noisesim.compose_kraus(noisesim.amplitude_damping_kraus(1.0),
                                noisesim.amplitude_damping_kraus(1.0))
    noisesim.assert_cptp(ks)
    assert all(np.any(k) for k in ks)


def _random_densities(dim, count, rng):
    a = (rng.normal(size=(count, dim, dim))
         + 1j * rng.normal(size=(count, dim, dim)))
    rhos = a @ a.conj().transpose(0, 2, 1)
    return rhos / np.trace(rhos, axis1=1, axis2=2)[:, None, None]


def test_run_noisy_batch_equals_separate_calls():
    tpl = circ.build_template("c6", 3, 1)
    rng = np.random.default_rng(5)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    rhos = _random_densities(8, 4, rng)
    batch = noisesim.run_noisy(bound, MELBOURNE, np.moveaxis(rhos, 0, -1))
    assert batch.shape == (8, 8, 4)
    for i, rho in enumerate(rhos):
        single = noisesim.run_noisy(bound, MELBOURNE, rho)
        assert np.max(np.abs(batch[..., i] - single)) <= 1e-14


def _iris_model(template="c15", layers=2):
    ds = data.load_iris(seed=0)
    scheme = encoding.EncodingScheme("1:1", 4)
    scaler = encoding.fit_scaler(ds.train_features)
    model = qnn.init_model(template, layers, scheme, seed=1, scaler=scaler)
    return model, encoding.apply_scaler(scaler, ds.val_features[:3])


def test_noisy_z_features_edge_shapes():
    model, x = _iris_model()
    assert noisesim.noisy_z_features(model, x[:0], MELBOURNE).shape == (0, 4)
    one = noisesim.noisy_z_features(model, x[0], MELBOURNE)
    assert one.shape == (1, 4)
    many = noisesim.noisy_z_features(model, x, MELBOURNE)
    assert np.max(np.abs(one[0] - many[0])) <= 1e-12


def _row_prefixes(groups, count):
    """Each row's prefix as ops, from `_lowered_rows`' row groups."""
    out = [None] * count
    for key, rows, angles in groups:
        for i, row in enumerate(rows):
            out[row] = [Op(kind, (q,), None if a is None else float(a[i]))
                        for (kind, q), a in zip(key, angles)]
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["c1", "c2", "c6", "c9", "c12", "c15"]),
       st.integers(1, 2), st.sampled_from(["1:1", "2:1"]),
       st.sampled_from(["IBM", "RIGETTI"]), st.integers(0, 10_000))
@example("c12", 2, "2:1", "IBM", 0)   # flush order differs from qubit order
def test_row_prefix_and_shared_tail_equal_full_lowering(template, layers, mode,
                                                        basis, seed):
    scheme = encoding.EncodingScheme(mode, 4)
    model = qnn.init_model(template, layers, scheme, seed=seed)
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-math.pi, math.pi, (3, scheme.capacity))
    prefixes, shared = noisesim._lowered_rows(model, rows, basis)
    bound = circ.bind(model.pqc, model.theta)
    for row, prefix in zip(rows, _row_prefixes(prefixes, len(rows))):
        full = Circuit(4, list(encoding.encode(row, scheme).ops)
                       + list(bound.ops))
        want, tail = noisesim._split_entangled(
            lower(full, basis, merge_1q=True).ops)
        assert prefix + shared == want + tail


def _op_bits(op):
    angle = None if op.angle is None else float(op.angle).hex()
    return op.kind, op.qubits, angle


@pytest.mark.parametrize("template", ["c6", "c15"])
@pytest.mark.parametrize("mode", ["1:1", "2:1"])
@pytest.mark.parametrize("basis", ["IBM", "RIGETTI"])
def test_batched_prefixes_equal_each_rows_lowering(template, mode, basis):
    # random features, and columns at the angles where the merge rules
    # branch: +-pi (a min-max scaled extreme), +-pi/2 and 0, signed zero too
    scheme = encoding.EncodingScheme(mode, 4)
    model = qnn.init_model(template, 2, scheme, seed=3)
    rng = np.random.default_rng(3)
    rows = rng.uniform(-math.pi, math.pi, (60, scheme.capacity))
    special = np.array([math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0,
                        -0.0])
    rows[:40] = np.where(rng.uniform(size=(40, scheme.capacity)) < 0.6,
                         rng.choice(special, (40, scheme.capacity)),
                         rows[:40])
    prefixes, _ = noisesim._lowered_rows(model, rows, basis)
    lead, _ = noisesim._split_entangled(
        lower(circ.bind(model.pqc, model.theta), basis).ops)
    got = _row_prefixes(prefixes, len(rows))
    for row, prefix in zip(rows, got):
        want = lower(Circuit(4, list(encoding.encode(row, scheme).ops)
                             + lead), basis, merge_1q=True).ops
        # each qubit's run; the prefix holds them in flush order
        assert len(prefix) == len(want)
        for q in range(4):
            assert [_op_bits(op) for op in prefix if op.qubits == (q,)] \
                == [_op_bits(op) for op in want if op.qubits == (q,)]


@pytest.mark.parametrize("template", sorted(circ.TEMPLATES))
@pytest.mark.parametrize("mode", ["1:1", "2:1"])
def test_product_state_prefixes_match_dense_prefix_runs(template, mode):
    # each row's prefix as a dense run_noisy from |0...0>, then the shared
    # tail on the stacked batch
    scheme = encoding.EncodingScheme(mode, 4)
    model = qnn.init_model(template, 2, scheme, seed=7)
    rows = np.random.default_rng(7).uniform(-math.pi, math.pi,
                                            (4, scheme.capacity))
    rows[1] = 0.0   # zero angles merge gates away from this row's prefix
    for device in (MELBOURNE, ALMADEN):
        for basis in ("IBM", "RIGETTI"):
            profile = dataclasses.replace(device, basis=basis)
            prefixes, shared = noisesim._lowered_rows(model, rows, basis)
            if basis == "IBM" and template != "c1":
                assert len(prefixes) == 2
            prefixes = _row_prefixes(prefixes, len(rows))
            rho = np.stack([noisesim.run_noisy(Circuit(4, prefix), profile)
                            for prefix in prefixes], axis=-1)
            rho = noisesim.run_noisy(Circuit(4, shared), profile, rho)
            want = (1 - 2 * profile.meas_err) * _populations_z(rho, 4)
            got = noisesim.noisy_z_features(model, rows, profile)
            assert np.max(np.abs(got - want)) <= 1e-12


def _embedded(m, qubits, units):
    """Full-register matrix of a local matrix; qubits[0] is its top bit."""
    k = len(qubits)
    dim = units[0][0, 0].shape[0]
    full = np.zeros((dim, dim), dtype=complex)
    for r, c in zip(*np.nonzero(m)):
        term = np.eye(dim, dtype=complex)
        for pos, q in enumerate(qubits):
            bit = k - 1 - pos
            term = term @ units[q][(r >> bit) & 1, (c >> bit) & 1]
        full = full + m[r, c] * term
    return full


def _oracle_rho(circuit, profile):
    """Dense reference: every Kraus operator embedded at full register size."""
    n = circuit.n_qubits
    eye = np.eye(2, dtype=complex)
    units = []   # units[q][r, c] = |r><c| on qubit q, identity elsewhere
    for q in range(n):
        grid = np.empty((2, 2), dtype=object)
        for r in range(2):
            for c in range(2):
                cell = np.zeros((2, 2), dtype=complex)
                cell[r, c] = 1.0
                full = np.eye(1, dtype=complex)
                for p in reversed(range(n)):
                    full = np.kron(full, cell if p == q else eye)
                grid[r, c] = full
        units.append(grid)
    rho = noisesim.zero_density(n)
    for op in circuit.ops:
        if len(op.qubits) == 1:
            depol = noisesim.depolarizing_kraus_1q(profile.err_1q)
            duration = profile.dur_1q_ns
        else:
            depol = noisesim.depolarizing_kraus_2q(profile.err_2q)
            duration = profile.dur_2q_ns
        steps = [([gate_matrix(op.kind, op.angle)], op.qubits),
                 (depol, op.qubits)]
        steps += [(profile.relaxation_kraus(duration), (q,))
                  for q in op.qubits]
        for kraus, qubits in steps:
            full = [_embedded(k, qubits, units) for k in kraus]
            rho = sum(k @ rho @ k.conj().T for k in full)
    return rho


def test_run_noisy_matches_dense_kraus_oracle():
    tpl = circ.build_template("c6", 3, 1)
    rng = np.random.default_rng(11)
    bound = circ.bind(tpl, rng.uniform(-math.pi, math.pi, tpl.n_params))
    bound = Circuit(3, [Op(K.H, (1,)), Op(K.RZ, (2,), 0.7)] + list(bound.ops))
    got = noisesim.run_noisy(bound, MELBOURNE)
    assert np.max(np.abs(got - _oracle_rho(bound, MELBOURNE))) <= 1e-12


def _oracle_z(model, row, profile):
    """Per-row readout-corrected <Z> from the dense oracle."""
    n = model.n_qubits
    ops = (list(encoding.encode(row, model.scheme).ops)
           + list(circ.bind(model.pqc, model.theta).ops))
    physical = lower(Circuit(n, ops), profile.basis, merge_1q=True)
    pops = np.real(np.diag(_oracle_rho(physical, profile)))
    return [(1 - 2 * profile.meas_err)
            * sum(pops[i] * (1 - 2 * ((i >> q) & 1)) for i in range(2 ** n))
            for q in range(n)]


_PROFILES = {"melbourne": MELBOURNE, "almaden": ALMADEN,
             "zero-noise": noisesim.zero_noise_profile(),
             "melbourne-rigetti": dataclasses.replace(MELBOURNE,
                                                      basis="RIGETTI")}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["c1", "c2", "c6", "c9", "c12", "c15"]),
       st.integers(1, 2), st.sampled_from(["1:1", "2:1"]),
       st.sampled_from(sorted(_PROFILES)), st.integers(0, 10_000))
@example("c1", 1, "1:1", "almaden", 0)   # no 2q gate: the suffix is empty
@example("c15", 2, "2:1", "melbourne-rigetti", 1)
def test_noisy_z_features_match_dense_kraus_oracle(template, layers, mode,
                                                   profile_name, seed):
    scheme = encoding.EncodingScheme(mode, 4)
    model = qnn.init_model(template, layers, scheme, seed=seed)
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-math.pi, math.pi, (2, scheme.capacity))
    profile = _PROFILES[profile_name]
    got = noisesim.noisy_z_features(model, rows, profile)
    want = np.array([_oracle_z(model, row, profile) for row in rows])
    assert np.max(np.abs(got - want)) <= 1e-12
