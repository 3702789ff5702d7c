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
    maximize_q_product,
    parse_partition,
    verify_bound,
)
from paulicrit.oracle import ORACLE_WORK_BUDGET, check_work_budget

FAST = OracleConfig(restarts=8, seed=1)

# random_set(8, 16, 2) of bench/reference.py: its A|BCDEFGH cut has a
# 7-qubit block
WIDTH8 = OperatorSet.from_strings(
    "11zz1zzx 1x1zz1yy 1xxzzxzx 1yxyzz1z 1zxyz1z1 1zxzy1y1 1zyyxz11 1zzxyyy1 "
    "x1xzzzxz xx1yzy1z xz1xz11x z1xyx1yy zx11y1z1 zxyzy1xz zyxx1yxy zyxxxyzy".split()
)


def test_config_defaults_and_validation():
    config = OracleConfig()
    assert config.restarts == 64
    assert config.max_iterations == 2000
    assert config.convergence_tol == 1e-9
    assert config.seed == 0
    with pytest.raises(ValueError):
        OracleConfig(restarts=0)
    with pytest.raises(ValueError):
        OracleConfig(max_iterations=0)
    with pytest.raises(ValueError):
        OracleConfig(convergence_tol=0.0)


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


def test_more_sweeps_never_lose_value(sigma3):
    # every block step is monotone, so a longer budget never ends lower
    part = parse_partition("A|BC", 3)
    wide = parse_partition("A|BCDEFGH", 8)
    searches = {
        "product": lambda config: maximize_q_product(sigma3, part, config),
        "global": lambda config: maximize_q_global(sigma3, config),
        "width 8": lambda config: maximize_q_product(WIDTH8, wide, config),
    }
    for name, search in searches.items():
        values = [
            search(OracleConfig(restarts=2, max_iterations=n, seed=2)).best_value
            for n in (1, 2, 4, 8)
        ]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-12, name


def test_batches_and_chunks_leave_the_search_unchanged(sigma15, monkeypatch):
    import paulicrit.oracle as oracle_module

    part = parse_partition("AB|CDE", 5)
    whole = maximize_q_product(sigma15, part, FAST)
    # one restart per batch, and block CDE's 15 members in chunks of 8
    monkeypatch.setattr(oracle_module, "_BATCH_AMPLITUDES", 64)
    split = maximize_q_product(sigma15, part, FAST)
    assert split.best_value == pytest.approx(whole.best_value, abs=1e-9)
    assert np.allclose(split.best_state.data, whole.best_state.data, atol=1e-9)


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


def test_verify_bound_three_qubit(sigma3):
    record = verify_bound(sigma3, parse_partition("A|BC", 3), FAST)
    assert record.graph_bound == 2
    assert record.saturated
    assert not record.violation
    assert record.converged
    one_sweep = OracleConfig(restarts=2, max_iterations=1)
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
    }
    assert obj["partition"] == "A|B|C"
    assert obj["graph_bound"] == 1
