"""The stacked invariant check against a per-matrix eigen-solve, and schedule validation.

``dynamics._first_violation`` decides a whole stack from its matrices' trace
and Hermiticity deviations and one batched Cholesky factorisation; these tests
hold its verdict to the plain per-matrix definition of the three invariants.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import dynamics, qmat

# Each drift and the start of the reason it must be reported with; NaN is put off the diagonal.
DRIFTS = {"trace": "trace drifted", "hermiticity": "Hermiticity deviation",
          "negative": "negative eigenvalue", "nan": "Hermiticity deviation nan"}


def reference(rhos):
    """The first matrix, in order, whose trace, Hermiticity or lowest eigenvalue is out of bounds."""
    for k, rho in enumerate(rhos):
        if not abs(np.trace(rho) - 1.0) < dynamics.TRACE_TOL:
            return k, f"trace drifted to {complex(np.trace(rho))!r}"
        herm = np.abs(rho - rho.conj().T).max()
        if not herm < qmat.HERMITICITY_TOL:
            return k, f"Hermiticity deviation {herm:.3e}"
        lowest = np.linalg.eigvalsh(rho)[0]
        if not lowest >= -dynamics.POSITIVITY_FLOOR:
            return k, f"negative eigenvalue {lowest:.3e} below floor"
    return None


def state(rng, d, complex_, spectrum):
    """V diag(spectrum) V^dag for a random unitary V, made exactly Hermitian."""
    z = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if complex_ else 0)
    v, _ = np.linalg.qr(z)
    rho = (v * spectrum) @ v.conj().T
    return (rho + rho.conj().T) / 2


def valid_state(rng, d, complex_):
    rank = rng.integers(1, d + 1)  # pure and low-rank states sit at the positivity floor
    spectrum = np.zeros(d)
    spectrum[:rank] = rng.random(rank) + 0.1
    return state(rng, d, complex_, spectrum / spectrum.sum())


def drifted(rng, rho, kind, size):
    d = len(rho)
    rho = rho.copy()
    i, j = rng.choice(d, 2, replace=False)
    if kind == "trace":
        rho[i, i] += size
    elif kind == "hermiticity":
        rho[i, j] += size
    elif kind == "negative":
        rest = rng.random(d - 1) + 0.1
        spectrum = np.concatenate([[-size], rest / rest.sum() * (1 + size)])
        rho = state(rng, d, np.iscomplexobj(rho), spectrum)
    else:
        rho[i, j] = np.nan
    return rho


stacks = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 32 - 1),
    "n": st.integers(1, 48),
    "d": st.sampled_from([2, 4, 8, 16]),
    "complex_": st.booleans(),
})


@settings(max_examples=150, deadline=None)
@given(spec=stacks, data=st.data())
def test_first_drift_is_named_as_the_reference_names_it(spec, data):
    rng = np.random.default_rng(spec["seed"])
    rhos = np.array([valid_state(rng, spec["d"], spec["complex_"]) for _ in range(spec["n"])])
    assert dynamics._first_violation(rhos) is None
    assert reference(rhos) is None
    k = data.draw(st.integers(0, spec["n"] - 1), label="index")
    kind = data.draw(st.sampled_from(list(DRIFTS)), label="kind")
    # Sizes stay far enough from each bound that rounding cannot move the verdict.
    size = data.draw(st.floats(1e-8, 1e-2), label="size")
    rhos[k] = drifted(rng, rhos[k], kind, size)
    if k + 1 < spec["n"] and data.draw(st.booleans(), label="later drift"):
        rhos[k + 1] = drifted(rng, rhos[k + 1], data.draw(st.sampled_from(list(DRIFTS))), size)
    found = dynamics._first_violation(rhos)
    assert found == reference(rhos)
    assert found[0] == k and found[1].startswith(DRIFTS[kind])


def test_nan_on_the_diagonal_is_a_trace_drift():
    rhos = np.array([np.eye(4) / 4] * 3)
    rhos[2, 1, 1] = np.nan
    assert dynamics._first_violation(rhos) == (2, "trace drifted to (nan+0j)") == reference(rhos)


class TestScheduleValidation:
    def test_a_malformed_event_after_many_valid_ones(self):
        index = np.append(np.zeros(10 ** 5, dtype=int), 2)
        with pytest.raises(ValueError, match=r"^index must be .* integers in \[0, 2\)$"):
            dynamics.Schedule(2, ((0, 1), (0, 1)), index)

    def test_a_float_equal_to_a_valid_pair_is_still_rejected(self):
        # (0.0, 1) == (0, 1), so checking each equal pair once would let it through.
        with pytest.raises(ValueError, match=r"^pair \(0\.0, 1\) invalid for 2 qubits"):
            dynamics.Schedule(2, ((0, 1), (0.0, 1)), [0, 0, 0])

    @pytest.mark.parametrize("event", [([0], 1), [0, 5]])
    def test_an_unhashable_event(self, event):
        with pytest.raises(ValueError, match="invalid for 3 qubits"):
            dynamics.Schedule(3, ((0, 1), event), [0, 0, 0])

    @pytest.mark.parametrize("pair", [5, np.array(5), (0, 1, 2), "01"])
    def test_a_non_pair_is_named(self, pair):
        # Unpacking 5 used to raise TypeError: cannot unpack non-iterable int object.
        with pytest.raises(ValueError, match=f"^pair {re.escape(str(pair))} invalid for 3 qubits"):
            dynamics.Schedule(3, ((0, 1), pair), [0])

    def test_the_first_bad_event_is_named(self):
        pairs = ((0, 1), (2, 1), (0, 1), (0, 5), (2, 1))
        with pytest.raises(ValueError, match=r"^pair \(2, 1\) invalid for 3 qubits"):
            dynamics.Schedule(3, pairs, [0])

    def test_list_events_are_still_accepted(self):
        schedule = dynamics.Schedule(3, ([0, 1], [1, 2]), [0, 1, 0])
        assert schedule.pairs == ((0, 1), (1, 2)) and len(schedule) == 3

    @pytest.mark.parametrize("index", [
        [0, -1], [0.0, 1.0], [[0, 1]], [True, False], ["0"], [], np.zeros(0, dtype=int),
        np.zeros((2, 0), dtype=int),
    ], ids=["negative", "float", "2-D", "bool", "str", "empty-list", "empty", "empty-2-D"])
    def test_a_negative_non_integer_multi_dimensional_or_empty_index(self, index):
        with pytest.raises(ValueError, match="^index must be a non-empty 1-D array of integers"):
            dynamics.Schedule(3, ((0, 1), (0, 2)), index)

    def test_the_index_is_a_read_only_copy(self):
        index = np.array([0, 1, 0])
        schedule = dynamics.Schedule(3, ((0, 1), (1, 2)), index)
        index[:] = 1
        np.testing.assert_array_equal(schedule.index, [0, 1, 0])
        with pytest.raises(ValueError, match="read-only"):
            schedule.index[0] = 1
