"""Numerical maximizers and the bound verification records.

Module tests run with few restarts; the acceptance suite exercises the
default configuration.
"""

import numpy as np
import pytest

from paulicrit import (
    CapExceeded,
    OperatorSet,
    OracleConfig,
    Partition,
    evaluate_q,
    maximize_q_global,
    parse_partition,
    verify_bound,
)
import paulicrit.oracle as oracle_module
from paulicrit.oracle import ORACLE_WORK_BUDGET, check_work_budget, maximize_q_product

FAST = OracleConfig(restarts=8, seed=1)

# random_set(8, 16, 2) of bench/reference.py: its A|BCDEFGH cut has a
# 7-qubit block
WIDTH8 = OperatorSet.from_strings(
    "11zz1zzx 1x1zz1yy 1xxzzxzx 1yxyzz1z 1zxyz1z1 1zxzy1y1 1zyyxz11 1zzxyyy1 "
    "x1xzzzxz xx1yzy1z xz1xz11x z1xyx1yy zx11y1z1 zxyzy1xz zyxx1yxy zyxxxyzy".split()
)

# the width-4 set whose clique number is not an upper bound on ABC|D
PAD4 = OperatorSet.from_strings("xy11 1x11 xzy1 1yx1 yyz1 xzz1 xx11 zxx1".split())


def test_config_defaults_and_validation():
    config = OracleConfig()
    assert config.restarts == 64
    assert oracle_module.MAX_SWEEPS == 2000
    assert config.seed == 0
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)


def test_product_search_two_qubit_pair():
    pair = OperatorSet.from_strings(["zz", "xx"])
    result = maximize_q_product(pair, parse_partition("A|B", 2), FAST)
    assert result.best_value == pytest.approx(1.0, abs=1e-6)
    assert result.best_state.is_pure
    assert result.converged
    assert result.iterations_used >= 8


def test_product_search_three_qubit(sigma3):
    finest = maximize_q_product(sigma3, Partition.finest(3), FAST)
    assert finest.best_value == pytest.approx(1.0, abs=1e-3)
    split = maximize_q_product(sigma3, parse_partition("A|BC", 3), FAST)
    assert split.best_value == pytest.approx(2.0, abs=1e-3)


def test_product_search_reports_consistent_value(sigma3):
    result = maximize_q_product(sigma3, parse_partition("A|BC", 3), FAST)
    direct = evaluate_q(result.best_state, sigma3).value
    assert result.best_value == pytest.approx(direct, abs=1e-9)


def test_product_search_deterministic(sigma3):
    part = parse_partition("AB|C", 3)
    a = maximize_q_product(sigma3, part, FAST)
    b = maximize_q_product(sigma3, part, FAST)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_state.data, b.best_state.data)


def test_product_search_seed_insensitive_at_the_optimum(sigma3):
    part = parse_partition("A|BC", 3)
    a = maximize_q_product(sigma3, part, OracleConfig(restarts=8, seed=3))
    b = maximize_q_product(sigma3, part, OracleConfig(restarts=8, seed=4))
    assert a.best_value == pytest.approx(b.best_value, abs=1e-6)


def test_more_sweeps_never_lose_value(sigma3, sigma15, monkeypatch):
    # every block step is monotone and a squared-extrapolation trial is kept
    # only where Q does not drop, so a longer budget never ends lower; odd
    # budgets end between the two sweeps of a cycle, and 32 and 64 sweeps
    # pass the switch to the exact one-qubit step
    part = parse_partition("A|BC", 3)
    wide = parse_partition("A|BCDEFGH", 8)
    searches = {
        "product": lambda config: maximize_q_product(sigma3, part, config),
        "global": lambda config: maximize_q_global(sigma3, config),
        "width 8": lambda config: maximize_q_product(WIDTH8, wide, config),
        "eq15 finest": lambda config: maximize_q_product(
            sigma15, Partition.finest(5), config
        ),
        "eq15 A|BCDE": lambda config: maximize_q_product(
            sigma15, parse_partition("A|BCDE", 5), config
        ),
        "pad4 ABC|D": lambda config: maximize_q_product(
            PAD4, parse_partition("ABC|D", 4), config
        ),
        "pad4 global": lambda config: maximize_q_global(PAD4, config),
    }
    for name, search in searches.items():
        values = []
        for n in (*range(1, 13), 32, 64):
            monkeypatch.setattr(oracle_module, "MAX_SWEEPS", n)
            result = search(OracleConfig(restarts=2, seed=2))
            # a trial is not a sweep
            assert result.iterations_used <= 2 * n, name
            values.append(result.best_value)
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12, name


def test_squared_trial_step_rule():
    # dyadic entries, so the differences below are exact
    x0 = [np.array([[1.0, 2.0j, -1.0, 0.5]])]
    d = [np.array([[0.5, -1.0, 0.25j, 2.0]])]
    # x1 - x0 = d and x2 - x1 = 3d: alpha = -|d| / |2d| is clamped to -1,
    # which gives x2 itself
    x1 = [x0[0] + d[0]]
    x2 = [x0[0] + 4 * d[0]]
    trial, finite = oracle_module._squared_trial(x0, x1, x2)
    assert finite.all()
    assert np.allclose(trial[0], x2[0] / np.linalg.norm(x2[0]), atol=1e-12)
    # x2 - x1 = d / 2: alpha = -|d| / |d / 2| = -2 over both blocks
    x1 = [x0[0] + d[0], x0[0]]
    x2 = [x0[0] + 1.5 * d[0], x0[0]]
    x0 = [x0[0], x0[0]]
    trial, finite = oracle_module._squared_trial(x0, x1, x2)
    expected = x0[0] + 4 * d[0] + 4 * (-0.5 * d[0])
    assert finite.all()
    assert np.allclose(trial[0], expected / np.linalg.norm(expected), atol=1e-12)
    assert np.allclose(trial[1], x0[1] / np.linalg.norm(x0[1]), atol=1e-12)
    # equal steps leave v = 0: the row is not finite and its trial is x2
    trial, finite = oracle_module._squared_trial(
        [x0[0]], [x0[0] + d[0]], [x0[0] + 2 * d[0]]
    )
    assert not finite.any()
    assert np.array_equal(trial[0], x0[0] + 2 * d[0])


_PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def _qubit_q(psi, weights, letters):
    """sum_s w_s <s>^2 on one qubit from explicit Pauli matrices, with
    <1> = 1 for a member whose letter row is all zero."""
    bloch = np.einsum("i,jik,k->j", psi.conj(), _PAULI, psi).real
    per_member = np.where(letters.any(axis=1), (letters @ bloch) ** 2, 1.0)
    return float(weights @ per_member)


def test_exact_qubit_step_is_the_block_maximum():
    rng = np.random.default_rng(5)
    for _ in range(50):
        members = int(rng.integers(1, 9))
        # one-hot over (x, y, z); index 3 is the identity's zero row
        letters = np.eye(4)[rng.integers(0, 4, size=members), :3]
        # a product of squared expectations lies in [0, 1]
        weights = rng.random((3, members)) ** 2
        best = oracle_module._qubit_maximizer(weights, letters)
        for row in range(3):
            exact = _qubit_q(best[row], weights[row], letters)
            m = weights[row] @ letters
            constant = weights[row] @ (1.0 - letters.sum(axis=1))
            assert exact == pytest.approx(constant + m.max(), abs=1e-12)
            for _ in range(40):
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                sample = _qubit_q(v / np.linalg.norm(v), weights[row], letters)
                assert sample <= exact + 1e-12


def test_finest_partition_settles_in_few_sweeps(sigma15):
    # the power step alone ran 4972 sweeps here; the exact one-qubit step
    # lands on a Bloch axis once a restart has settled
    config = OracleConfig(restarts=10)
    result = maximize_q_product(sigma15, Partition.finest(5), config)
    assert result.iterations_used < 500
    assert result.best_value == pytest.approx(1.0, abs=1e-9)
    assert result.converged


def test_finest_partition_search_is_unchanged(sigma15):
    # no block of two or more qubits, so no squared-extrapolation trial: the
    # plain sweeps alone give these counts
    config = OracleConfig(restarts=10)
    result = maximize_q_product(sigma15, Partition.finest(5), config)
    assert result.iterations_used == 93
    assert result.best_value == pytest.approx(1.0, abs=1e-12)


# random_set(6, 12, 2) of bench/reference.py
R6S2 = OperatorSet.from_strings(
    "11y1z1 1xz11x 1yzy1z 1zz1yy xx1yxy xxxyzy xyx1yy xyzz1z xzy1y1 yyxz11 "
    "yzy1xz zz1zzx".split()
)


def test_single_restarts_reach_the_finest_maximum():
    # 10 of 40 single restarts reach 2 with the power step alone; taking the
    # exact step from the first sweep commits every qubit to an axis at
    # once and reaches it in 1 of 40
    finest = Partition.finest(6)
    reached = sum(
        maximize_q_product(R6S2, finest, OracleConfig(restarts=1, seed=seed)).best_value
        >= 2 - 1e-3
        for seed in range(40)
    )
    assert reached == 11


def test_batches_and_chunks_leave_the_search_unchanged(sigma15, monkeypatch):
    part = parse_partition("AB|CDE", 5)
    whole = maximize_q_product(sigma15, part, FAST)
    # one restart per batch, and block CDE's 15 members in chunks of 8
    monkeypatch.setattr(oracle_module, "_BATCH_AMPLITUDES", 64)
    split = maximize_q_product(sigma15, part, FAST)
    # equal bit for bit: batches leave each row's float operations as
    # they are, and these chunks of 8 members give the one-chunk products
    assert split.best_value == whole.best_value
    assert split.iterations_used == whole.iterations_used
    assert split.converged == whole.converged
    assert np.array_equal(split.best_state.data, whole.best_state.data)


def test_product_search_caps_and_mismatch(sigma3):
    with pytest.raises(ValueError):
        maximize_q_product(sigma3, Partition.finest(4), FAST)
    wide = OperatorSet.from_strings(["z" * 13])
    with pytest.raises(CapExceeded):
        maximize_q_product(wide, Partition.finest(13), FAST)
    # block size is limited by the work budget alone: restarts x members x
    # the summed block dimensions
    block7 = OperatorSet.from_strings(["z" * 7])
    single = Partition.single_block(7)
    result = maximize_q_product(block7, single, FAST)
    assert result.best_value == pytest.approx(1.0, abs=1e-9)
    at_budget = OracleConfig(restarts=ORACLE_WORK_BUDGET // 128)
    check_work_budget(block7, [single], at_budget)
    over = OracleConfig(restarts=ORACLE_WORK_BUDGET // 128 + 1)
    with pytest.raises(CapExceeded, match="work budget"):
        maximize_q_product(block7, single, over)


def test_product_search_reads_the_width_cap_before_any_sweep(monkeypatch):
    import paulicrit.states as states_module

    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran past the width cap")

    monkeypatch.setattr(states_module, "PURE_QUBIT_CAP", 2)
    monkeypatch.setattr(oracle_module, "_ascend", forbidden)
    zzz = OperatorSet.from_strings(["zzz"])
    with pytest.raises(CapExceeded, match="product search on width 3 exceeds cap 2"):
        maximize_q_product(zzz, Partition.finest(3), FAST)


def test_global_search_simple_sets():
    pair = OperatorSet.from_strings(["zz", "xx"])
    result = maximize_q_global(pair, FAST)
    assert result.best_value == pytest.approx(2.0, abs=1e-3)
    single = OperatorSet.from_strings(["zz"])
    assert maximize_q_global(single, FAST).best_value == pytest.approx(
        1.0, abs=1e-6
    )


def test_global_search_three_qubit(sigma3):
    result = maximize_q_global(sigma3, FAST)
    assert result.best_value == pytest.approx(4.0, abs=1e-3)
    # the colouring route proves no state can beat the clique value here
    assert result.best_value <= 4.0 + 1e-6
    direct = evaluate_q(result.best_state, sigma3).value
    assert result.best_value == pytest.approx(direct, abs=1e-9)


def test_global_search_deterministic(sigma3):
    a = maximize_q_global(sigma3, FAST)
    b = maximize_q_global(sigma3, FAST)
    assert a.best_value == b.best_value


def test_global_search_cap():
    wide = OperatorSet.from_strings(["z" * 11])
    assert maximize_q_global(wide, FAST).best_value == pytest.approx(1.0, abs=1e-9)
    # one member more than the budget admits at 12 qubits and 64 restarts
    count = ORACLE_WORK_BUDGET // (64 * 4096) + 1
    zs = str.maketrans("01", "1z")
    over = OperatorSet.from_strings(
        [format(k, "012b").translate(zs) for k in range(1, count + 1)]
    )
    with pytest.raises(CapExceeded, match="work budget"):
        maximize_q_global(over)


def test_global_search_converges_on_pad4():
    # the power step alone ran 20 000 sweeps here at the default settings
    result = maximize_q_global(PAD4)
    assert result.converged
    assert result.best_value >= 2.0938
    assert result.iterations_used < 10_000


def test_global_beats_any_product(sigma3):
    product = maximize_q_product(sigma3, parse_partition("A|BC", 3), FAST)
    whole = maximize_q_global(sigma3, FAST)
    assert whole.best_value >= product.best_value - 1e-9


def test_verify_bound_pair():
    pair = OperatorSet.from_strings(["zz", "xx"])
    record = verify_bound(pair, parse_partition("A|B", 2), FAST)
    assert record.graph_bound == 1
    assert record.oracle_value == pytest.approx(1.0, abs=1e-6)
    assert record.saturated
    assert not record.violation
    assert record.gap == pytest.approx(0.0, abs=1e-6)


def test_verify_bound_three_qubit(sigma3, monkeypatch):
    record = verify_bound(sigma3, parse_partition("A|BC", 3), FAST)
    assert record.graph_bound == 2
    assert record.saturated
    assert not record.violation
    assert record.converged
    monkeypatch.setattr(oracle_module, "MAX_SWEEPS", 1)
    one_sweep = OracleConfig(restarts=2)
    assert not verify_bound(sigma3, parse_partition("A|BC", 3), one_sweep).converged


def test_verification_record_json(sigma3):
    record = verify_bound(sigma3, Partition.finest(3), FAST)
    obj = record.to_json_obj()
    assert set(obj) == {
        "partition",
        "graph_bound",
        "oracle_value",
        "gap",
        "saturated",
        "violation",
        "converged",
        "sweeps",
    }
    assert obj["partition"] == "A|B|C"
    assert obj["graph_bound"] == 1
    result = maximize_q_product(sigma3, Partition.finest(3), FAST)
    assert obj["sweeps"] == result.iterations_used > 0
