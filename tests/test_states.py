"""State construction, Pauli expectations, and the criterion value."""

import itertools

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    OperatorSet,
    Partition,
    QuantumState,
    anticommuting_unit_combination,
    assemble_product,
    common_eigenstate,
    evaluate_q,
    expectation,
    mix,
    named_state,
    parse_partition,
    parse_pauli,
    random_product_state,
    restrict,
    to_matrix,
)
import paulicrit.states as states_module
from paulicrit.cuts import enumerate_bipartitions
from paulicrit.pauli import PauliString
from paulicrit.states import (
    gather_table,
    load_state,
    save_state,
    state_from_json_obj,
    state_to_json_obj,
)


def random_pure(rng, width):
    vec = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return QuantumState.pure(vec / np.linalg.norm(vec))


def random_mixed(rng, width):
    dim = 1 << width
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.dirichlet(np.ones(3))
    for w in weights:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec /= np.linalg.norm(vec)
        rho += w * np.outer(vec, vec.conj())
    return QuantumState.mixed(rho)


def test_pure_validation():
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        QuantumState.pure(np.ones((2, 2)))
    state = QuantumState.pure(np.array([1.0, 0.0]))
    assert state.width == 1 and state.is_pure


def test_mixed_validation():
    with pytest.raises(ValueError):
        QuantumState.mixed(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
    with pytest.raises(ValueError):
        QuantumState.mixed(np.eye(2))
    with pytest.raises(ValueError):
        QuantumState.mixed(np.eye(3) / 3.0)
    with pytest.raises(ValueError, match="density matrix must be square"):
        QuantumState.mixed([[1, 0, 0]])
    state = QuantumState.mixed(np.eye(4) / 4.0)
    assert state.width == 2 and not state.is_pure


@pytest.mark.parametrize(
    "make, entries, message",
    [
        (QuantumState.pure, [float("nan"), 0.0], "non-finite amplitude"),
        (QuantumState.mixed, [[0.5, float("inf")], [float("inf"), 0.5]],
         "non-finite entry"),
    ],
    ids=["pure-nan", "mixed-inf"],
)
def test_states_refuse_non_finite_entries(make, entries, message):
    # every comparison with NaN is false, so the norm, Hermitian and trace
    # checks alone let these through
    with pytest.raises(ValueError, match=message):
        make(entries)


def test_state_data_is_read_only():
    state = named_state("ghz", 2)
    with pytest.raises(ValueError):
        state.data[0] = 0.0


def test_mixed_rejects_negative_eigenvalue():
    QuantumState.mixed(np.eye(2) / 2.0)
    # Hermitian with unit trace, but not a state
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        QuantumState.mixed(np.diag([1.5, -0.5]).astype(complex))


def test_density_of_pure_state():
    state = QuantumState.pure(np.array([1.0, 0.0]))
    assert np.allclose(state.density(), np.diag([1.0, 0.0]))


def test_expectation_basis_state():
    zeros = named_state("basis", 3, "000")
    assert expectation(zeros, parse_pauli("zzz")) == pytest.approx(1.0)
    assert expectation(zeros, parse_pauli("z1z")) == pytest.approx(1.0)
    assert expectation(zeros, parse_pauli("xzz")) == pytest.approx(0.0)
    assert expectation(zeros, parse_pauli("yyy")) == pytest.approx(0.0)


def test_expectation_ghz():
    ghz = named_state("ghz", 3)
    assert expectation(ghz, parse_pauli("xxx")) == pytest.approx(1.0)
    assert expectation(ghz, parse_pauli("zz1")) == pytest.approx(1.0)
    assert expectation(ghz, parse_pauli("z11")) == pytest.approx(0.0)
    assert expectation(ghz, parse_pauli("xyy")) == pytest.approx(-1.0)


def test_expectation_matches_matrix_trace():
    """``expectation`` and every ``evaluate_q`` term against the dense
    trace tr(rho S), on pure and mixed states of widths 1-6."""
    rng = np.random.default_rng(41)
    for width in range(1, 7):
        states = [random_pure(rng, width), random_mixed(rng, width)]
        sigma = seeded_set(width, min(4**width - 1, 25), 20 + width)
        for state in states:
            rho = state.density()
            q = evaluate_q(state, sigma)
            for member, text in zip(sigma.members, sigma.texts()):
                trace = np.trace(rho @ to_matrix(member)).real
                direct = expectation(state, member)
                assert direct == pytest.approx(trace, abs=1e-10)
                assert abs(direct) <= 1.0 + 1e-10
                assert q.contributions[text] == pytest.approx(trace**2, abs=1e-10)


def test_expectation_width_mismatch_and_caps(monkeypatch):
    ghz = named_state("ghz", 3)
    with pytest.raises(ValueError):
        expectation(ghz, parse_pauli("xx"))
    wide = QuantumState.pure(np.eye(1, 1 << 13).reshape(-1))
    with pytest.raises(CapExceeded):
        expectation(wide, parse_pauli("z" * 13))
    mixed = QuantumState.mixed(np.eye(1 << 9) / float(1 << 9))
    with pytest.raises(CapExceeded):
        expectation(mixed, parse_pauli("z" * 9))
    # the cap is read at call time
    monkeypatch.setattr(states_module, "PURE_QUBIT_CAP", 2)
    with pytest.raises(CapExceeded, match="width 3 exceeds cap 2"):
        expectation(ghz, parse_pauli("xxx"))


def test_evaluate_q_ghz(sigma3):
    q = evaluate_q(named_state("ghz", 3), sigma3)
    assert q.value == pytest.approx(4.0, abs=1e-10)
    nonzero = {text for text, term in q.contributions.items() if term > 1e-12}
    assert nonzero == {"xxx", "yyx", "yxy", "xyy"}
    assert q.value == pytest.approx(sum(q.contributions.values()))


def test_evaluate_q_maximally_mixed(sigma3):
    rho = QuantumState.mixed(np.eye(8) / 8.0)
    q = evaluate_q(rho, sigma3)
    assert q.value == pytest.approx(0.0, abs=1e-12)


def test_evaluate_q_terms_bounded(sigma15):
    rng = np.random.default_rng(47)
    q = evaluate_q(random_pure(rng, 5), sigma15)
    for term in q.contributions.values():
        assert -1e-12 <= term <= 1.0 + 1e-12


def seeded_set(width, count, seed):
    """``count`` distinct non-identity strings of the width, drawn from a
    seeded generator, in draw order."""
    rng = np.random.default_rng(seed)
    pairs = {}
    while len(pairs) < count:
        x, z = (int(bits) for bits in rng.integers(0, 1 << width, size=2))
        if x or z:
            pairs[x, z] = None
    return OperatorSet(PauliString(width, x, z) for x, z in pairs)


@pytest.mark.parametrize("width", range(1, 7))
def test_gather_table_matches_each_member_action(width):
    """Every row of the table, on every block of the finest partition, of
    each bipartition and of the single block, holds the one nonzero entry
    of each column of the member's restricted matrix, exactly, in one
    chunk or one member per chunk."""
    sigma = seeded_set(width, min(4**width - 1, 12), width)
    parts = [Partition.finest(width), Partition.single_block(width)]
    if width >= 2:
        parts += enumerate_bipartitions(width)
    for block in sorted({block for part in parts for block in part.blocks}):
        idx = np.arange(1 << len(block))
        for amplitudes in (1, 1 << 18):
            step = max(1, amplitudes >> len(block))
            rows, starts = [], []
            for start, perms, phases, letters in gather_table(
                sigma.members, block, amplitudes
            ):
                starts.append(start)
                hots = [None] * len(perms) if letters is None else list(letters)
                rows += zip(perms, phases, hots)
            assert starts == list(range(0, len(sigma), step))
            assert len(rows) == len(sigma)
            for member, (perm, phase, hot) in zip(sigma.members, rows):
                site = restrict(member, block)
                matrix = to_matrix(site)
                assert np.count_nonzero(matrix) == 1 << len(block)
                assert np.array_equal(phase, matrix[perm, idx])
                if len(block) > 1:
                    assert hot is None
                    continue
                # the letter one-hot over (x, y, z), zero for the identity
                one_hot = np.zeros(3)
                if site.x_bits or site.z_bits:
                    one_hot[2 * site.z_bits - (site.x_bits & site.z_bits)] = 1.0
                assert np.array_equal(hot, one_hot)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 8])
def test_evaluate_q_equals_the_sum_of_member_expectations(width):
    """Q and each term equal the squared ``expectation`` of each member,
    summed in member order, exactly; width 8 takes three member chunks."""
    sigma = seeded_set(width, min(4**width - 1, 40), 10 + width)
    rng = np.random.default_rng(width)
    states = [random_pure(rng, width), random_mixed(rng, width)]
    if width >= 2:
        states += [named_state("ghz", width), named_state("w", width)]
    if width == 4:
        states.append(named_state("smolin", 4))
    for state in states:
        q = evaluate_q(state, sigma)
        assert list(q.contributions) == list(sigma.texts())
        total = 0.0
        for member, text in zip(sigma.members, sigma.texts()):
            e = expectation(state, member)
            assert q.contributions[text] == e * e
            total += e * e
        assert q.value == total


def test_qvalue_json_obj(sigma3):
    q = evaluate_q(named_state("basis", 3, "000"), sigma3)
    obj = q.to_json_obj()
    assert set(obj) == {"value", "contributions"}
    assert len(obj["contributions"]) == 8


def test_named_state_ghz_and_w():
    ghz = named_state("ghz", 2)
    assert np.allclose(ghz.data, np.array([1, 0, 0, 1]) / np.sqrt(2))
    w3 = named_state("w", 3)
    expect = np.zeros(8)
    expect[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    assert np.allclose(w3.data, expect)


def test_named_state_basis_indexing():
    # qubit 0 is the most significant bit of the basis index
    state = named_state("basis", 4, "0101")
    assert state.data[0b0101] == 1.0
    assert expectation(state, parse_pauli("z111")) == pytest.approx(1.0)
    assert expectation(state, parse_pauli("1z11")) == pytest.approx(-1.0)


def test_named_state_errors(monkeypatch):
    with pytest.raises(ValueError):
        named_state("ghz", 1)
    with pytest.raises(ValueError):
        named_state("smolin", 3)
    with pytest.raises(ValueError):
        named_state("basis", 3, "01")
    with pytest.raises(ValueError):
        named_state("basis", 3, None)
    with pytest.raises(ValueError):
        named_state("cluster", 4)
    # only basis states take a detail
    for name, width in (("ghz", 3), ("w", 3), ("smolin", 4)):
        with pytest.raises(ValueError, match=f"{name} state takes no detail"):
            named_state(name, width, "junk")
    # pure states are refused over the cap, read at call time, before the
    # amplitudes are allocated
    monkeypatch.setattr(states_module, "PURE_QUBIT_CAP", 2)
    for args in (("ghz", 3), ("w", 3), ("basis", 3, "000")):
        with pytest.raises(CapExceeded, match=f"{args[0]} state on width 3 exceeds cap 2"):
            named_state(*args)


def test_smolin_entries_are_exact():
    # (1 + xxxx + yyyy + zzzz) / 16: each entry is 0 or 1/8 with no rounding
    rho = named_state("smolin", 4).data
    assert set(np.unique(rho).tolist()) == {0.0, 0.125}
    assert np.trace(rho) == 1.0


def test_smolin_correlations():
    smolin = named_state("smolin", 4)
    for text in ("xxxx", "yyyy", "zzzz"):
        assert expectation(smolin, parse_pauli(text)) == pytest.approx(1.0)
    for text in ("zz11", "1zz1", "x1x1", "11yy"):
        assert expectation(smolin, parse_pauli(text)) == pytest.approx(0.0, abs=1e-10)


def test_mix():
    up = named_state("basis", 1, "0")
    down = named_state("basis", 1, "1")
    half = mix([up, down], [0.5, 0.5])
    assert np.allclose(half.data, np.eye(2) / 2.0)
    single = mix([up], [1.0])
    assert np.allclose(single.data, up.density())


def test_mix_validation():
    up = named_state("basis", 1, "0")
    with pytest.raises(ValueError):
        mix([], [])
    with pytest.raises(ValueError):
        mix([up], [0.5])
    with pytest.raises(ValueError):
        mix([up, up], [1.5, -0.5])
    with pytest.raises(ValueError):
        mix([up, named_state("ghz", 2)], [0.5, 0.5])
    with pytest.raises(ValueError):
        mix([up, up], [0.7])


def test_q_is_convex_under_mixing(sigma3):
    rng = np.random.default_rng(53)
    a, b = random_pure(rng, 3), random_pure(rng, 3)
    qa = evaluate_q(a, sigma3).value
    qb = evaluate_q(b, sigma3).value
    for t in np.linspace(0.0, 1.0, 7):
        qm = evaluate_q(mix([a, b], [1.0 - t, t]), sigma3).value
        assert qm <= max(qa, qb) + 1e-8


def test_common_eigenstate_bell():
    ops = [parse_pauli("zz"), parse_pauli("xx")]
    state = common_eigenstate(ops)
    for op in ops:
        assert abs(expectation(state, op)) == pytest.approx(1.0, abs=1e-8)


def test_common_eigenstate_diagonal_family():
    state = common_eigenstate([parse_pauli("z1"), parse_pauli("1z")])
    # both operators definite means a computational basis state
    assert np.count_nonzero(np.abs(state.data) > 1e-9) == 1


def test_common_eigenstate_attains_clique_value(sigma15):
    clique = [parse_pauli(t) for t in ("1zxxz", "xxz1z", "xz1zx", "z1zxx", "zxxz1")]
    state = common_eigenstate(clique)
    q = evaluate_q(state, sigma15)
    assert q.value == pytest.approx(5.0, abs=1e-8)


def test_common_eigenstate_needs_consistent_signs():
    # xx * yy * zz = -1, so one expectation must flip sign
    ops = [parse_pauli("xx"), parse_pauli("yy"), parse_pauli("zz")]
    state = common_eigenstate(ops)
    values = [expectation(state, op) for op in ops]
    for v in values:
        assert abs(abs(v) - 1.0) < 1e-8
    assert np.prod(values) == pytest.approx(-1.0, abs=1e-8)
    # from |00>, xx and zz keep the Bell state (|00> + |11>)/sqrt(2), which
    # yy sends to its negative: the + projector of yy annihilates it
    ops = [parse_pauli("xx"), parse_pauli("zz"), parse_pauli("yy")]
    values = [expectation(common_eigenstate(ops), op) for op in ops]
    assert values == pytest.approx([1.0, 1.0, -1.0], abs=1e-12)


def test_common_eigenstate_rejects_bad_input():
    with pytest.raises(ValueError):
        common_eigenstate([parse_pauli("xx"), parse_pauli("zx")])
    with pytest.raises(ValueError):
        common_eigenstate([parse_pauli("11")])
    with pytest.raises(ValueError):
        common_eigenstate([])
    with pytest.raises(ValueError):
        common_eigenstate([parse_pauli("x"), parse_pauli("xx")])
    with pytest.raises(CapExceeded):
        common_eigenstate([parse_pauli("z" * 11)])


def test_assemble_product_orders_blocks():
    part = parse_partition("AC|BD", 4)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    zero_one = np.array([0.0, 1.0, 0.0, 0.0])  # |01> on the block qubits
    state = assemble_product(part, [np.kron(plus, plus), zero_one])
    # block AC in |++>, block BD in |01>: qubit 1 reads 0, qubit 3 reads 1
    assert expectation(state, parse_pauli("x1x1")) == pytest.approx(1.0)
    assert expectation(state, parse_pauli("1z11")) == pytest.approx(1.0)
    assert expectation(state, parse_pauli("111z")) == pytest.approx(-1.0)


def test_assemble_product_validation():
    part = parse_partition("A|BC", 3)
    good = [np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0])]
    assert assemble_product(part, good).width == 3
    with pytest.raises(ValueError):
        assemble_product(part, [np.array([1.0, 0.0])])
    with pytest.raises(ValueError):
        assemble_product(part, [np.array([1.0, 0.0, 0.0]), good[1]])


def test_random_product_state_factorizes():
    part = parse_partition("AB|CD", 4)
    state = random_product_state(part, seed=9)
    for left, right, full in (
        ("xy11", "11zx", "xyzx"),
        ("zz11", "11xy", "zzxy"),
    ):
        prod = expectation(state, parse_pauli(left)) * expectation(
            state, parse_pauli(right)
        )
        assert expectation(state, parse_pauli(full)) == pytest.approx(prod, abs=1e-10)


def test_random_product_state_deterministic():
    part = parse_partition("A|BC", 3)
    a = random_product_state(part, seed=4)
    b = random_product_state(part, seed=4)
    assert np.allclose(a.data, b.data)
    c = random_product_state(part, seed=5)
    assert not np.allclose(a.data, c.data)


@pytest.mark.parametrize(
    "dims, count", [((2,), 1), ((4, 2), 5), ((2, 8, 2, 4), 64), ((4096,), 3)]
)
def test_haar_units_equal_one_draw_at_a_time(dims, count):
    # one standard_normal call for every vector, in the order of drawing
    # them one at a time: round by round, dimension by dimension
    units = states_module.haar_unit(np.random.default_rng(11), dims, count)
    rng = np.random.default_rng(11)
    for r in range(count):
        for unit, dim in zip(units, dims):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert unit.shape == (count, dim)
            assert unit[r].tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_anticommuting_unit_combination():
    x, y, z = (parse_pauli(t) for t in "xyz")
    assert np.allclose(
        anticommuting_unit_combination([x, y, z], (1.0, 0.0, 0.0)), to_matrix(x)
    )
    m = anticommuting_unit_combination([x, y], (0.6, 0.8))
    assert np.allclose(m, m.conj().T)
    assert np.allclose(m @ m, np.eye(2))
    wide = anticommuting_unit_combination(
        [parse_pauli("xx"), parse_pauli("yx")],
        (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)),
    )
    assert np.allclose(wide @ wide, np.eye(4))
    assert abs(np.trace(wide)) < 1e-10


def test_anticommuting_unit_combination_validation():
    x, y = parse_pauli("x"), parse_pauli("y")
    with pytest.raises(ValueError):
        anticommuting_unit_combination([x, y], (1.0, 1.0))
    with pytest.raises(ValueError):
        anticommuting_unit_combination(
            [parse_pauli("xx"), parse_pauli("yy")], (0.6, 0.8)
        )
    with pytest.raises(ValueError):
        anticommuting_unit_combination([x], (1.0, 0.0))
    with pytest.raises(CapExceeded):
        anticommuting_unit_combination([parse_pauli("x" * 7)], (1.0,))


def test_state_json_round_trip(tmp_path):
    rng = np.random.default_rng(59)
    pure = random_pure(rng, 3)
    mixed = random_mixed(rng, 2)
    for state in (pure, mixed):
        path = tmp_path / f"{state.kind}.json"
        save_state(state, path)
        loaded = load_state(path)
        assert loaded.kind == state.kind
        assert loaded.width == state.width
        assert np.allclose(loaded.data, state.data, atol=1e-12)


def test_state_json_obj_shape():
    obj = state_to_json_obj(named_state("ghz", 2))
    assert obj["kind"] == "pure"
    assert obj["width"] == 2
    assert len(obj["amplitudes"]) == 4
    assert obj["amplitudes"][0] == [pytest.approx(1 / np.sqrt(2)), 0.0]
    back = state_from_json_obj(obj)
    assert np.allclose(back.data, named_state("ghz", 2).data)


def test_state_json_rejects_malformed(tmp_path):
    with pytest.raises(ValueError):
        state_from_json_obj({"kind": "pure", "width": 1})
    with pytest.raises(ValueError):
        state_from_json_obj(
            {"kind": "pure", "width": 2, "amplitudes": [[1.0, 0.0]]}
        )
    with pytest.raises(ValueError):
        state_from_json_obj({"kind": "thermal", "width": 1, "amplitudes": []})
    # a kind that is a JSON list or object is unknown too, not a TypeError
    for kind in ([], {}):
        with pytest.raises(ValueError, match="unknown state kind"):
            state_from_json_obj({"kind": kind, "width": 1})
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError):
        load_state(path)
