"""The three shared argument rules, pinned at every public entry point.

Each entry point lists its arguments with a good value and the rule that
checks it.  Rows put one bad value in one slot and expect the rule's
exact message; bool is rejected wherever a real or an int is expected,
while ints, numpy float64 and numpy integers stay accepted.
"""

import math

import numpy as np
import pytest

from combweyl import (DomainSpec, ExperimentConfig, RectSpec,
                      build_comb_grid, build_rect_operator, comb_inertia_count,
                      comb_layout, constant_report, count_nonpositive_tooth,
                      count_rect_dirichlet, count_rect_neumann, count_tooth,
                      crossover_scan, dense_count, em_decomposition,
                      enumerate_rect_eigs, fd_rect_count_closed_form,
                      inertia_count, mode_cutoff, theorem_constant,
                      tooth_mode_eigenvalue, weyl_constant)
from combweyl.dtn import square_mixed_gap
from combweyl.lattice import UNIT_SQUARE

FINITE = "{} must be finite, got {!r}"
POSITIVE = "{} must be finite and > 0, got {!r}"
POS_INT = "{} must be an int >= 1, got {!r}"

SPEC = DomainSpec(1, 1.0)
OP = build_rect_operator(2, 2, 0.5)

# (entry point, callable, [(argument name, rule or None, good value)]).
# A None rule marks an argument with no shared check.
ENTRY_POINTS = [
    ("DomainSpec", DomainSpec, [("q", POS_INT, 1), ("h", FINITE, 1.0)]),
    ("RectSpec", RectSpec, [("a", POSITIVE, 1.0), ("b", POSITIVE, 2.0)]),
    ("mode_cutoff", mode_cutoff, [("mu", POSITIVE, 100.0)]),
    ("weyl_constant", weyl_constant, [("mu", POSITIVE, 100.0), ("h", POSITIVE, 1.0)]),
    ("theorem_constant", theorem_constant,
     [("mu", POSITIVE, 100.0), ("h", POSITIVE, 1.0)]),
    ("constant_report", constant_report, [("mu", POSITIVE, 100.0), ("h", POSITIVE, 1.0)]),
    ("em_decomposition", em_decomposition,
     [("mu", POSITIVE, 100.0), ("h", POSITIVE, 1.0)]),
    ("count_rect_dirichlet", count_rect_dirichlet,
     [("rect", None, UNIT_SQUARE), ("lambda", FINITE, 100.0)]),
    ("count_rect_neumann", count_rect_neumann,
     [("rect", None, UNIT_SQUARE), ("lambda", FINITE, 100.0)]),
    ("count_tooth", count_tooth, [("spec", None, SPEC), ("lambda", FINITE, 100.0)]),
    ("enumerate_rect_eigs", enumerate_rect_eigs,
     [("rect", None, UNIT_SQUARE), ("lambda", FINITE, 100.0)]),
    ("tooth_mode_eigenvalue", tooth_mode_eigenvalue,
     [("k", POS_INT, 1), ("q", POS_INT, 1), ("h", POSITIVE, 1.0),
      ("lambda", FINITE, 100.0)]),
    ("count_nonpositive_tooth", count_nonpositive_tooth,
     [("q", POS_INT, 1), ("h", POSITIVE, 1.0), ("lambda", FINITE, 100.0)]),
    ("square_mixed_gap", square_mixed_gap, [("lambda", FINITE, 100.0)]),
    ("comb_layout", comb_layout, [("spec", None, SPEC), ("s", POS_INT, 2)]),
    ("build_comb_grid", build_comb_grid, [("spec", None, SPEC), ("s", POS_INT, 2)]),
    ("comb_inertia_count", comb_inertia_count,
     [("spec", None, SPEC), ("s", POS_INT, 2), ("lambda", FINITE, 100.0)]),
    ("build_rect_operator", build_rect_operator,
     [("m_cols", POS_INT, 2), ("k_rows", POS_INT, 3), ("delta", POSITIVE, 1.0)]),
    ("fd_rect_count_closed_form", fd_rect_count_closed_form,
     [("m_cols", POS_INT, 2), ("k_rows", POS_INT, 3), ("delta", POSITIVE, 1.0),
      ("lambda", FINITE, 10.0)]),
    ("inertia_count", inertia_count, [("op", None, OP), ("lambda", FINITE, 10.0)]),
    ("dense_count", dense_count, [("op", None, OP), ("lambda", FINITE, 10.0)]),
    ("ExperimentConfig",
     lambda mu, h, q, s: ExperimentConfig((mu,), h, (q,), (s,)),
     [("mu_list[0]", POSITIVE, 100.0), ("h", POSITIVE, 1.0),
      ("q_list[0]", POS_INT, 1), ("s_list[0]", POS_INT, 2)]),
    # crossover_scan checks its grid's order itself; h reaches theorem_constant.
    ("crossover_scan", lambda h: crossover_scan([100.0], h), [("h", POSITIVE, 1.0)]),
]

BAD_VALUES = {
    FINITE: (math.nan, math.inf, -math.inf, "1"),
    POSITIVE: (0.0, -1.0, math.nan, math.inf, "1"),
    POS_INT: (0, -1, 2.0, True, None),
}


def _call(fn, slots, pos=None, value=None):
    args = [value if i == pos else good for i, (_, _, good) in enumerate(slots)]
    return fn(*args)


def _rows(values_of):
    for label, fn, slots in ENTRY_POINTS:
        for pos, (name, rule, _) in enumerate(slots):
            for v in values_of(label, rule):
                yield pytest.param(fn, slots, pos, v, rule.format(name, v),
                                   id=f"{label}-{name}={v!r}")


def _bools(label, rule):
    # ExperimentConfig rejected bools already; False fails "> 0" either way.
    if rule is None or rule is POS_INT or label == "ExperimentConfig":
        return ()
    return (True, False) if rule is FINITE else (True,)


@pytest.mark.parametrize("fn,slots,pos,value,msg",
                         _rows(lambda label, rule: BAD_VALUES.get(rule, ())))
def test_shared_message(fn, slots, pos, value, msg):
    with pytest.raises(ValueError) as exc:
        _call(fn, slots, pos, value)
    assert str(exc.value) == msg


@pytest.mark.parametrize("fn,slots,pos,value,msg", _rows(_bools))
def test_bool_is_not_a_real(fn, slots, pos, value, msg):
    with pytest.raises(ValueError) as exc:
        _call(fn, slots, pos, value)
    assert str(exc.value) == msg


def test_crossover_scan_grid_rejects_bool():
    with pytest.raises(ValueError) as exc:
        crossover_scan([True], 1.0)
    assert str(exc.value) == POSITIVE.format("mu", True)


def _key(result):
    """A comparable form of an entry point's result."""
    if hasattr(result, "matrix"):
        return result.matrix.toarray().tolist()
    if hasattr(result, "node_index"):
        return result.node_index.tolist()
    return result


# int and np.float64 stand in for the good float values, np.int64 for the int ones.
@pytest.mark.parametrize("fn,slots,convert,kind", [
    pytest.param(fn, slots, convert, kind, id=f"{label}-{convert.__name__}")
    for label, fn, slots in ENTRY_POINTS
    for convert, kind in ((int, float), (np.float64, float), (np.int64, int))
    if any(type(good) is kind for _, _, good in slots)])
def test_int_and_float64_accepted(fn, slots, convert, kind):
    want = _key(_call(fn, slots))
    converted = [(name, rule, convert(good) if type(good) is kind else good)
                 for name, rule, good in slots]
    assert _key(_call(fn, converted)) == want


def test_numpy_ints_stored_as_int():
    spec = DomainSpec(np.int64(2), 1.0)
    config = ExperimentConfig((100.0,), 1.0, (np.int64(3), np.int32(2)), (np.int64(15),))
    assert type(spec.q) is int and spec == DomainSpec(2, 1.0)
    assert [type(v) for v in config.q_list + config.s_list] == [int, int, int]
    assert (config.q_list, config.s_list) == ((2, 3), (15,))
