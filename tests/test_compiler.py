"""Gate decompositions and the corrected-sequence compiler."""
import hashlib

import numpy as np
import pytest
import scipy.linalg

from dcgforge.compiler import (CNOT_MATRIX, Gate, HADAMARD_MATRIX,
                               PrimitiveSpec, circuit_unitary, compile_circuit,
                               compile_dcg, compile_dcg_spec, compile_noop,
                               decompose_gate, embed_gate, gate_unitary,
                               parse_gate, spec_unitary)
from dcgforge.operators import embed_pauli, spectral_norm
from dcgforge.pulses import (SHAPES, format_sequence, intended_unitary,
                             TRIANGULAR, validate, x_on, y_on, zz_on)


def phase_distance(u, v):
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return spectral_norm(u - phase * v)


def embed_oracle(u, qubits, n):
    """Basis-state loop embedding, independent of the tensor reshape path."""
    dim = 2 ** n
    k = len(qubits)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for q in qubits:
            sub_col = 2 * sub_col + bits[q]
        for sub_row in range(2 ** k):
            new_bits = list(bits)
            for idx, q in enumerate(qubits):
                new_bits[q] = (sub_row >> (k - 1 - idx)) & 1
            row = 0
            for b in new_bits:
                row = 2 * row + b
            full[row, col] += u[sub_row, sub_col]
    return full


def test_embed_gate_matches_basis_loop():
    rng = np.random.default_rng(30)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(m)
    for qubits in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
        expected = embed_oracle(u, qubits, 3)
        assert spectral_norm(embed_gate(u, qubits, 3) - expected) <= 1e-12
    v = scipy.linalg.expm(-1j * 0.3 * embed_pauli("y", 0, 1))
    for q in (0, 1, 2):
        assert spectral_norm(embed_gate(v, (q,), 3)
                             - embed_oracle(v, (q,), 3)) <= 1e-12


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("x", (0, 1))
    with pytest.raises(ValueError):
        Gate("cnot", (0,))
    with pytest.raises(ValueError):
        Gate("spam", (0,))
    with pytest.raises(ValueError):
        PrimitiveSpec(((x_on(0), 0.3), (y_on(0), 0.2)))


def test_gate_unitary_matches_constants():
    assert np.allclose(gate_unitary(Gate("hadamard", (0,)), 1),
                       HADAMARD_MATRIX)
    assert np.allclose(gate_unitary(Gate("cnot", (0, 1)), 2), CNOT_MATRIX)
    u = gate_unitary(Gate("x", (0,), 0.25), 1)
    assert np.allclose(u, scipy.linalg.expm(-1j * 0.25 * embed_pauli("x", 0, 1)))


def test_decomposition_counts():
    assert len(decompose_gate(Gate("hadamard", (0,)))) == 2
    assert len(decompose_gate(Gate("cnot", (0, 1)))) == 6
    assert len(decompose_gate(Gate("noop", ()))) == 1
    assert len(decompose_gate(Gate("zz", (0, 1), 0.4))) == 1


def test_spec_unitary_matches_scipy():
    spec = PrimitiveSpec(((y_on(1), 0.3), (x_on(0), -0.2)))
    h = 0.3 * embed_pauli("y", 1, 2) - 0.2 * embed_pauli("x", 0, 2)
    assert spectral_norm(spec_unitary(spec, 2)
                         - scipy.linalg.expm(-1j * h)) <= 1e-12


def _decomposition_product(gate, n):
    u = np.eye(2 ** n, dtype=complex)
    for spec in decompose_gate(gate):
        h = sum((area * gen.matrix(n) for gen, area in spec.actions),
                np.zeros((2 ** n, 2 ** n), dtype=complex))
        u = scipy.linalg.expm(-1j * h) @ u
    return u


def test_hadamard_decomposition_reaches_target():
    for q, n in ((0, 1), (1, 2), (2, 3)):
        gate = Gate("hadamard", (q,))
        d = phase_distance(_decomposition_product(gate, n),
                           gate_unitary(gate, n))
        assert d <= 1e-12


def test_cnot_decomposition_reaches_target():
    for qubits, n in (((0, 1), 2), ((1, 0), 2), ((0, 2), 3), ((2, 0), 3),
                      ((1, 2), 3)):
        gate = Gate("cnot", qubits)
        d = phase_distance(_decomposition_product(gate, n),
                           gate_unitary(gate, n))
        assert d <= 1e-12, (qubits, d)


def test_cnot_decomposition_structure():
    specs = decompose_gate(Gate("cnot", (0, 1)))
    zz_slots = [s for s in specs if any(g.kind == "zz" for g, _ in s.actions)]
    assert len(zz_slots) == 1
    # one slot drives both qubits at once; all areas have magnitude pi/4
    assert max(len(s.actions) for s in specs) == 2
    for s in specs:
        for _, area in s.actions:
            assert abs(area) == pytest.approx(np.pi / 4)


def test_compile_noop_structure():
    seq = compile_noop(2, 1.0)
    assert seq.slot_count == 8
    assert seq.total_duration == pytest.approx(8.0)
    wins = seq.windows()
    assert len(wins) == 8
    for _, _, segs in wins:
        assert len(segs) == 2
        for seg in segs:
            assert seg.area == pytest.approx(np.pi / 2)
    assert phase_distance(intended_unitary(seq), np.eye(4)) <= 1e-10
    assert validate(seq, tau_min=1.0, h_max=2.0) == []


def test_compile_dcg_slot_count_and_target():
    for gate, n in ((Gate("x", (0,), 0.9), 1), (Gate("y", (1,), 1.7), 2),
                    (Gate("zz", (0, 1), 0.4), 2)):
        seq = compile_dcg(gate, n, 1.0)
        assert seq.slot_count == 16
        assert seq.total_duration == pytest.approx(16.0)
        assert phase_distance(intended_unitary(seq),
                              gate_unitary(gate, n)) <= 1e-10
        assert validate(seq, tau_min=1.0, h_max=3.0) == []


def test_compile_dcg_noop_falls_back_to_cycle():
    seq = compile_dcg(Gate("noop", ()), 2, 1.0)
    assert seq.slot_count == 8


def test_compile_dcg_rejects_composite_gates():
    with pytest.raises(ValueError):
        compile_dcg(Gate("hadamard", (0,)), 1, 1.0)
    with pytest.raises(ValueError):
        compile_dcg(Gate("cnot", (0, 1)), 2, 1.0)


def test_compile_dcg_spec_multi_action():
    spec = PrimitiveSpec(((y_on(1), np.pi / 4), (x_on(0), -np.pi / 4)))
    seq = compile_dcg_spec(spec, 2, 1.0)
    assert seq.slot_count == 16
    assert phase_distance(intended_unitary(seq), spec_unitary(spec, 2)) <= 1e-10
    assert validate(seq, tau_min=1.0, h_max=3.0) == []


def test_compile_circuit_counts_and_targets():
    circuit = [Gate("hadamard", (0,)), Gate("cnot", (0, 1)),
               Gate("cnot", (0, 2))]
    target = circuit_unitary(circuit, 3)
    prim = compile_circuit(circuit, "primitive", 3, 1.0)
    assert prim.slot_count == 14
    assert prim.total_duration == pytest.approx(14.0)
    assert phase_distance(intended_unitary(prim), target) <= 1e-10
    dcg = compile_circuit(circuit, "dcg", 3, 1.0)
    assert dcg.slot_count == 224
    assert dcg.total_duration == pytest.approx(224.0)
    assert phase_distance(intended_unitary(dcg), target) <= 1e-10
    for seq in (prim, dcg):
        assert validate(seq, tau_min=1.0, h_max=3.0) == []


def test_compile_circuit_other_shapes_and_epsilon():
    circuit = [Gate("zz", (0, 1), 0.4)]
    seq = compile_circuit(circuit, "dcg", 2, 1.0, TRIANGULAR, 1e-3)
    assert seq.slot_count == 16
    assert all(s.shape is TRIANGULAR for s in seq.segments)
    assert all(s.epsilon == 1e-3 for s in seq.segments)
    assert phase_distance(intended_unitary(seq),
                          circuit_unitary(circuit, 2)) <= 1e-10


# sha256 of the `compile` wire text at n_system=3, tau=0.3; a digest that
# moves is a wire-format change, not a refactor
WIRE_SHA256 = {
    ("hadamard", "primitive", "rectangular", 0.0):
        "bc291f826b646050d85726ca96019b0ea08c612e521fed0643870a7eda1fa8db",
    ("hadamard", "primitive", "rectangular", 0.001):
        "367d2df69f2345d8e2fa9707dc3983be11c5754ffaa4026e782d2227b161f9cf",
    ("hadamard", "primitive", "triangular", 0.0):
        "51dad9eedc60818bf829deb48e3dd8b516d4d38b7d7d7da072340071cfdcb1be",
    ("hadamard", "primitive", "triangular", 0.001):
        "01bdc2db408709f28a0b99545ec4e2f5ca793fd7fc9aafa0d2ce16928e0f6d64",
    ("hadamard", "dcg", "rectangular", 0.0):
        "bed1f2bf447ede3ceb9022d136d7c8707123e77aa4e3262ba9dfc3e7e1ee5fd0",
    ("hadamard", "dcg", "rectangular", 0.001):
        "56d977bc5de873a4a03e5fc9def02c0d4e123538da918547cd176df5ce9fe88f",
    ("hadamard", "dcg", "triangular", 0.0):
        "c43ccc4a51602fe41ea8f576c1ebfbbe96b646cc1ca81dd0f800e8db25bb4f66",
    ("hadamard", "dcg", "triangular", 0.001):
        "c82111cb8b4fed89279ed3beafe6ff23aff8527132c9d8941822ccdf61b144d8",
    ("cnot", "primitive", "rectangular", 0.0):
        "7cb1440294d7e3f82200f399ad5af1716c2a19113f289c8ed6ff834672d621c0",
    ("cnot", "primitive", "rectangular", 0.001):
        "54cce5aa79dc7391e7a4f4e12fd3dc0949cd35315de71b71ab0105fc714dec5e",
    ("cnot", "primitive", "triangular", 0.0):
        "61f2219a4d21c7abccb6597f643f70024f15e9a0cf402e842800299d6f05b11b",
    ("cnot", "primitive", "triangular", 0.001):
        "c4aa82dde0d6dac02d2210bd1cfb1cd4825c81bc04262b5ec8b66d3e747bc3a5",
    ("cnot", "dcg", "rectangular", 0.0):
        "de4f9b8f362cc63cd5d038e51e20e932c296b5ccd52078ed7afb0c33da91fce8",
    ("cnot", "dcg", "rectangular", 0.001):
        "471c90b9b5c9bc5e63b792a577b95da053092fbb43961352017f900ebbdde2fd",
    ("cnot", "dcg", "triangular", 0.0):
        "8631945569bac0301fbf7ef81b80203c7356d309d1d94f3b8874348fa0ecd731",
    ("cnot", "dcg", "triangular", 0.001):
        "5fb86f49742d798017fdffdb92124933ee5c39ce55cba31c523c17172c1a442f",
    ("x", "primitive", "rectangular", 0.0):
        "fd5c065e18a3a9b829ac66bda92abbd11c7b2c527f3e715e4155bc17426e3f57",
    ("x", "primitive", "rectangular", 0.001):
        "ebf0aa7550ad71074834199e673b060ecb813d7050951bf94424f74a3082d1b0",
    ("x", "primitive", "triangular", 0.0):
        "a91105c6027906cd3df5987a9f9fa1f4b01e4ea46a3ff6002d50115421b8e28f",
    ("x", "primitive", "triangular", 0.001):
        "7c9ffd3b94d2d937139b4289691bf895b36cff4d4de1d20e9dcb819e0eb327a3",
    ("x", "dcg", "rectangular", 0.0):
        "3fe49dfc3b28755711833cfad5b2a48db6ec44b91b608b225abaee26fccf8f5e",
    ("x", "dcg", "rectangular", 0.001):
        "f025eb1adae3d7d391c6aecb8345d9b1ba20fd0e729ea7105d6de92a4ba9e2d9",
    ("x", "dcg", "triangular", 0.0):
        "9f3237b2a97babb31dca60b7003298f5edbe91c5c1e117c3365d4662f5e71fd8",
    ("x", "dcg", "triangular", 0.001):
        "fb1bf7321da2f9750d1afe8f854964bc5117f7b29f6b666ba1d2f8dda1963936",
    ("y", "primitive", "rectangular", 0.0):
        "84c4077bb1243d158a3ce444f24cbe4d1ad7a483f09ca9084be526c2662b4c7a",
    ("y", "primitive", "rectangular", 0.001):
        "3cb4ec59c003b18d8cefaaba00ae800363d18f4575eb26858192d4a1b66f2539",
    ("y", "primitive", "triangular", 0.0):
        "0dba8970f96699301a93be1fae238317030a31155dfa17608bdfae8ea887eb84",
    ("y", "primitive", "triangular", 0.001):
        "86b9deef344ae49b212c614ce6c2230c0723c7d5afc4aa768a735361b974edf9",
    ("y", "dcg", "rectangular", 0.0):
        "e7053b480ddac913664e0364190b0630cde462a1e82d8c249afed2c32d5680af",
    ("y", "dcg", "rectangular", 0.001):
        "8218033f5ae148d6267408630980eeb22b43a6e973c19815ac939ed309ca4775",
    ("y", "dcg", "triangular", 0.0):
        "f01232abf17c9bdffa29c9eda8cdacf1e17b96e30bab5ecfff6b6f2a7ff5d574",
    ("y", "dcg", "triangular", 0.001):
        "2b0cda89da1b7831bb89f2715e8e66f391f22dd7d3b47eb091e2627b3678ff2b",
    ("zz", "primitive", "rectangular", 0.0):
        "b6ee7eeb60ebe7bdb036537abb3afc0e06f930ebcb9cc844327fa67733182937",
    ("zz", "primitive", "rectangular", 0.001):
        "4743c4fec57a894190ab3b7155875f17c59983362064612a2228cb7111836605",
    ("zz", "primitive", "triangular", 0.0):
        "a59560e634491f0cf86cf7d9e26cd054e428a16830bdf43314024d103aa5419e",
    ("zz", "primitive", "triangular", 0.001):
        "0e180df49e2770e064680c4906154d1f2e09cf4cd732adfd0a4de077c96e52c7",
    ("zz", "dcg", "rectangular", 0.0):
        "b1f1f2751795c4816f3cb38799d39fe5db273bbe918f92e6d13f41cb0061a760",
    ("zz", "dcg", "rectangular", 0.001):
        "85a9ac6a850bfd727dc5a328b76b421f0fd99098af3d1562638c27d0ad77550d",
    ("zz", "dcg", "triangular", 0.0):
        "99c7e87ce33c2f481420fbad2d11525d4be67a9a836f206b236217df1b3379e8",
    ("zz", "dcg", "triangular", 0.001):
        "031373350d654e8218a3da612316f9e59e0e98944f1e007e04c8866e2d69c431",
    ("noop", "primitive", "rectangular", 0.0):
        "5c71f2a7010d211f499903e0c79c8eeb4898c5dccacbaae86027ebfdc095bbc9",
    ("noop", "primitive", "rectangular", 0.001):
        "1a896a25b2d3003f48d93106ee2412004d55fddc5b9d3cf18da2f13332bf41ff",
    ("noop", "primitive", "triangular", 0.0):
        "5d3cedbfe095d09c98ea0e34a1064fc42fba88b71b6f3f845b706cb13a9b8f50",
    ("noop", "primitive", "triangular", 0.001):
        "eda4ed488172e3eaafc460e22b84bc4af31a181fdcbe07c145d9fccf4761802c",
    ("noop", "dcg", "rectangular", 0.0):
        "db83aebc58d709d65276908e9bee7e9ab2bd6e2ebe6c4bc56470a76607ac48ae",
    ("noop", "dcg", "rectangular", 0.001):
        "b7c5f39db46a49acf7d9da66980f5f870f73f4b27896f634f7c6fc660c64533b",
    ("noop", "dcg", "triangular", 0.0):
        "8b0f6f4a17add820ff8a0612b87f4f6cf192cf8b47d6fa922912f69c0f20d6c1",
    ("noop", "dcg", "triangular", 0.001):
        "03f72a07c5f2226cbf5f807b456be45ab227a67f3a307c9e050434aa7169d2c9",
}
WIRE_GATES = {"hadamard": Gate("hadamard", (1,)), "cnot": Gate("cnot", (2, 0)),
              "x": Gate("x", (0,), 0.7), "y": Gate("y", (2,), -1.3),
              "zz": Gate("zz", (0, 2), 0.4), "noop": Gate("noop", ())}


def test_compile_wire_format_is_pinned():
    for (kind, mode, shape, epsilon), digest in WIRE_SHA256.items():
        seq = compile_circuit([WIRE_GATES[kind]], mode, 3, 0.3,
                              SHAPES[shape], epsilon)
        text = format_sequence(seq)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, \
            (kind, mode, shape, epsilon)


def test_compile_circuit_rejects_unknown_mode():
    with pytest.raises(ValueError):
        compile_circuit([Gate("noop", ())], "fancy", 1, 1.0)


def test_parse_gate():
    g = parse_gate("cnot:0,1")
    assert (g.kind, g.qubits) == ("cnot", (0, 1))
    g = parse_gate("x:2:0.785")
    assert (g.kind, g.qubits, g.angle) == ("x", (2,), 0.785)
    g = parse_gate("noop")
    assert (g.kind, g.qubits) == ("noop", ())
    with pytest.raises(ValueError):
        parse_gate("zz:0,1")
    with pytest.raises(ValueError):
        parse_gate("")
    with pytest.raises(ValueError):
        parse_gate("warp:0")
