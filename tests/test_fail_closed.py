"""A NaN or an infinity in any array a public entry point takes fails closed.

Each case puts one NaN, inf or -inf into one entry of an otherwise valid
input, at a position hypothesis draws.  The entry point must raise a
ValueError that names what is wrong, with no numpy warning first, or return
a condition report whose verdict is not HOLDS.  ``eig_sym`` and
``DerivativeBundle`` carry a NaN facing a NaN as they got it (see
``test_spectral`` and ``test_polynomials``), so what they return goes on to
the entry points that read it, which must refuse it.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirdopt import (
    ConditionReport,
    ConditionTolerances,
    DerivativeBundle,
    EigenDecomp,
    OptimizerConfig,
    OracleObjective,
    Polynomial,
    Subspace,
    SymTensor3,
    Verdict,
    check_third_order,
    descent_witness,
    eig_sym,
    escape_subspace,
    minimize,
    sample_direction,
    solve_cubic_model,
    stationarity,
)

NON_FINITE = (math.nan, math.inf, -math.inf)

# What the refusals say
NAMED = re.compile("non-finite|not symmetric|not orthonormal|must be|is not finite|overflows"
                   "|another objective or point")
# What outcome() gives for a named refusal; None is a result descent_witness can return
REFUSED = object()


def outcome(call):
    """What ``call`` returns, with warnings raised as errors, or ``REFUSED`` where it
    raises a named ValueError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError as exc:
            assert type(exc) is ValueError and NAMED.search(str(exc)), repr(exc)
            return REFUSED


def fails_closed(call) -> bool:
    """Whether ``call`` is refused or gives a report that does not hold."""
    result = outcome(call)
    return result is REFUSED or (isinstance(result, ConditionReport)
                                 and result.verdict is not Verdict.HOLDS)


def corrupt(data, array, bad, symmetric=False):
    """A copy of ``array`` with ``bad`` at a drawn entry, and at its mirror images if
    ``symmetric`` and a drawn flag say so."""
    out = np.array(array, dtype=float)
    index = np.unravel_index(data.draw(st.integers(0, out.size - 1)), out.shape)
    targets = {index}
    if symmetric and data.draw(st.booleans()):
        targets = set(itertools.permutations(index))
    for target in targets:
        out[target] = bad
    return out


class Inputs:
    """Finite, valid inputs in dimension n: a point, a gradient, a symmetric matrix, its
    decomposition, a symmetric tensor, and a polynomial whose gradient is nowhere zero."""

    def __init__(self, data):
        self.n = n = data.draw(st.integers(1, 3), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        self.point = rng.uniform(-1.0, 1.0, n)
        self.grad = rng.standard_normal(n)
        a = rng.standard_normal((n, n))
        self.hess = (a + a.T) / 2.0
        self.decomp = eig_sym(self.hess)
        self.third = SymTensor3(rng.standard_normal((n, n, n))).entries
        self.poly = Polynomial(n, [(1.0, tuple(int(i == j) for j in range(n))) for i in range(n)]
                               + [(float(rng.standard_normal()), (3,) + (0,) * (n - 1))])

    def oracle(self, **outputs):
        """An OracleObjective returning these inputs, or the given outputs, at every point."""
        fields = {"value": 0.5, "grad": self.grad, "hess": self.hess, "third": self.third}
        fields.update(outputs)
        return OracleObjective(self.n, **{k: (lambda x, v=v: v) for k, v in fields.items()})


class BundleObjective:
    """An Objective whose bundle is one given DerivativeBundle."""

    def __init__(self, bundle):
        self.bundle_value = bundle
        self.dim = bundle.grad.shape[0]

    def value(self, x):
        return self.bundle_value.value

    def bundle(self, x, order):
        return self.bundle_value


def refuses_decomp(inputs, decomp) -> bool:
    """Whether every entry point that reads a decomposition refuses this one."""
    tensor = SymTensor3(inputs.third)
    return all(fails_closed(call) for call in (
        lambda: solve_cubic_model(inputs.grad, decomp, 1.0),
        lambda: stationarity(inputs.grad, decomp, 1.0),
        lambda: escape_subspace(decomp, tensor, 1.0, 1.0),
    ))


def check_polynomial_point(data, inputs, bad):
    return fails_closed(lambda: check_third_order(inputs.poly, corrupt(data, inputs.point, bad)))


def check_polynomial_tolerance(data, inputs, bad):
    name = data.draw(st.sampled_from(("grad", "eig", "third")))
    return fails_closed(lambda: check_third_order(inputs.poly, inputs.point,
                                                  ConditionTolerances(**{name: bad})))


def check_oracle_output(data, inputs, bad):
    field = data.draw(st.sampled_from(("value", "grad", "hess", "third")))
    clean = {"value": 0.5, "grad": inputs.grad, "hess": inputs.hess, "third": inputs.third}
    objective = inputs.oracle(**{field: corrupt(data, clean[field], bad, symmetric=True)})
    return fails_closed(lambda: check_third_order(objective, inputs.point))


def check_oracle_point(data, inputs, bad):
    objective = inputs.oracle()
    return fails_closed(lambda: check_third_order(objective, corrupt(data, inputs.point, bad)))


def eig_sym_matrix(data, inputs, bad):
    matrix = corrupt(data, inputs.hess, bad, symmetric=True)
    decomp = outcome(lambda: eig_sym(matrix))
    return decomp is REFUSED or refuses_decomp(inputs, decomp)


def subspace_basis(data, inputs, bad):
    basis = inputs.decomp.eigenvectors[:, :data.draw(st.integers(1, inputs.n))]
    return fails_closed(lambda: Subspace(inputs.n, corrupt(data, basis, bad)))


def derivative_bundle_field(data, inputs, bad):
    fields = {"value": 0.5, "grad": inputs.grad, "hess": inputs.hess, "third": inputs.third}
    name = data.draw(st.sampled_from(sorted(fields)))
    fields[name] = corrupt(data, fields[name], bad, symmetric=True)
    fields["value"] = float(fields["value"])
    fields["third"] = SymTensor3(fields["third"])
    bundle = outcome(lambda: DerivativeBundle(**fields))
    return bundle is REFUSED or fails_closed(
        lambda: check_third_order(BundleObjective(bundle), inputs.point))


def model_input(data, inputs, bad):
    """A corrupted gradient, eigenvalue, eigenvector or reg, for the solver or stationarity."""
    entry = data.draw(st.sampled_from((solve_cubic_model, stationarity)))
    grad, values, vectors, reg = (inputs.grad, inputs.decomp.eigenvalues,
                                  inputs.decomp.eigenvectors, 1.0)
    which = data.draw(st.sampled_from(("grad", "eigenvalues", "eigenvectors", "reg")))
    if which == "grad":
        grad = corrupt(data, grad, bad)
    elif which == "eigenvalues":
        values = corrupt(data, values, bad)
    elif which == "eigenvectors":
        vectors = corrupt(data, vectors, bad)
    else:
        reg = bad
    return fails_closed(lambda: entry(grad, EigenDecomp(values, vectors), reg))


def escape_input(data, inputs, bad):
    values, vectors, third = inputs.decomp.eigenvalues, inputs.decomp.eigenvectors, inputs.third
    constants = [1.0, 1.0]
    which = data.draw(st.sampled_from(("eigenvalues", "eigenvectors", "third", "constant")))
    if which == "eigenvalues":
        values = corrupt(data, values, bad)
    elif which == "eigenvectors":
        vectors = corrupt(data, vectors, bad)
    elif which == "third":
        third = corrupt(data, third, bad, symmetric=True)
    else:
        constants[data.draw(st.integers(0, 1))] = bad
    return fails_closed(lambda: escape_subspace(EigenDecomp(values, vectors), SymTensor3(third),
                                                *constants))


def sampler_input(data, inputs, bad):
    third, threshold = inputs.third, 1e-3
    if data.draw(st.booleans()):
        third = corrupt(data, third, bad, symmetric=True)
    else:
        threshold = bad
    return fails_closed(lambda: sample_direction(SymTensor3(third), Subspace.full(inputs.n),
                                                 threshold, np.random.default_rng(0)))


def witness_input(data, inputs, bad):
    """A corrupted point or third-order constant, or an objective whose value is bad
    away from the checked point."""
    which = data.draw(st.sampled_from(("point", "third_lipschitz", "value")))
    x = inputs.point
    if which == "value":
        objective = OracleObjective(
            inputs.n,
            value=lambda p: inputs.poly.value(p) if np.array_equal(p, x) else bad,
            grad=lambda p: inputs.poly.bundle(p, 1).grad,
            hess=lambda p: inputs.poly.bundle(p, 2).hess,
            third=lambda p: inputs.poly.bundle(p, 3).third.entries,
        )
    else:
        objective = inputs.poly
    report = check_third_order(objective, x)
    assert report.verdict is Verdict.FIRST_ORDER_FAIL
    if which == "point":
        return fails_closed(lambda: descent_witness(objective, corrupt(data, x, bad), report, 1.0))
    lip3 = bad if which == "third_lipschitz" else 1e3
    return fails_closed(lambda: descent_witness(objective, x, report, lip3))


def witness_of_a_holding_report(data, inputs, bad):
    # the constant is checked before the report is seen to hold
    poly = Polynomial(inputs.n, [(1.0, tuple(4 * (j == i) for j in range(inputs.n)))
                                 for i in range(inputs.n)])
    x = np.zeros(inputs.n)
    report = check_third_order(poly, x)
    assert report.holds
    return fails_closed(lambda: descent_witness(poly, x, report, bad))


CASES = [check_polynomial_point, check_polynomial_tolerance, check_oracle_output,
         check_oracle_point, eig_sym_matrix, subspace_basis, derivative_bundle_field,
         model_input, escape_input, sampler_input, witness_input, witness_of_a_holding_report]


@pytest.mark.parametrize("case", CASES, ids=[case.__name__ for case in CASES])
def test_non_finite_input_fails_closed(case):
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        inputs = Inputs(data)
        bad = data.draw(st.sampled_from(NON_FINITE), label="bad")
        assert case(data, inputs, bad)

    check()


def overflowing_third_at_every_point():
    """An objective whose third derivative's squared norm overflows everywhere."""
    return OracleObjective(2, value=lambda x: 0.0, grad=lambda x: np.ones(2),
                           hess=lambda x: np.eye(2),
                           third=lambda x: np.full((2, 2, 2), 1e160))


@pytest.mark.parametrize("call", [
    lambda: eig_sym(np.array([[1e200, 1e200], [-1e200, 1.0]])),
    lambda: eig_sym(np.array([[1.0, math.inf], [2.0, 1.0]])),
    lambda: escape_subspace(eig_sym(np.eye(2)), SymTensor3(np.full((2, 2, 2), 1e160)), 1.0, 1.0),
    lambda: minimize(overflowing_third_at_every_point(), np.zeros(2), OptimizerConfig(1.0, 1.0)),
], ids=["asymmetric-norm-overflows", "inf-facing-a-number", "escape_subspace", "minimize"])
def test_input_whose_norm_overflows_fails_closed(call):
    # finite entries whose squares overflow a norm, and an infinity facing a
    # number: a named ValueError, with no numpy warning first
    assert outcome(call) is REFUSED
