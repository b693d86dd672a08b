"""The public names and every optional parameter behind them, pinned.

Each optional parameter or config field is a setting that tests and
benchmarks must cover, so adding one has to come with an edit here.
"""

import dataclasses
import enum
import inspect

import thirdopt
from thirdopt import bench

PUBLIC_NAMES = [
    "CHECKER_NOTE", "CORPUS_NAMES", "ConditionReport", "ConditionTolerances", "CubicSolution",
    "DerivativeBundle", "DescentWitness", "DirectionSample", "EigenDecomp", "EscapeSubspace",
    "FdResiduals", "HessianClass", "IterationRecord", "Objective", "OptimizerConfig",
    "OracleObjective", "Polynomial", "RateReport", "SamplerBudgetError", "SmoothnessConstants",
    "Stationarity", "Subspace", "SymTensor3", "Trace", "Verdict", "check_third_order",
    "classify_hessian", "corpus", "cubic_step", "descent_witness", "eig_sym", "escape_step",
    "escape_subspace", "finite_difference_check", "minimize", "null_space", "quartic_plus_sixth",
    "rate_report", "sample_direction", "smoothness_bounds", "solve_cubic_model", "stationarity",
]

# Public callables (functions, constructors, methods) that take optional
# parameters; every other public callable takes none.
OPTIONAL_PARAMETERS = {
    "ConditionTolerances": ("grad", "eig", "third"),
    "Objective.bundle": ("order",),
    "OptimizerConfig": ("sampler_constant", "max_iters", "seed", "tol_mu"),
    "OracleObjective": ("grad", "hess", "third"),
    "OracleObjective.bundle": ("order",),
    "Polynomial.bundle": ("order",),
    "Trace": ("records", "final_point", "final_value", "reason"),
    "bench.run_suite": ("seed",),
    "check_third_order": ("tols",),
    "classify_hessian": ("tol",),
    "descent_witness": ("seed",),
    "null_space": ("tol",),
    "smoothness_bounds": ("min_constant",),
    "stationarity": ("derivs",),
}


def _optional(func) -> tuple:
    params = inspect.signature(func).parameters.values()
    return tuple(p.name for p in params if p.default is not p.empty)


def _public_callables():
    yield "bench.run_suite", bench.run_suite
    for name in thirdopt.__all__:
        obj = getattr(thirdopt, name)
        if not callable(obj) or isinstance(obj, enum.EnumMeta):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_public_names():
    assert thirdopt.__all__ == PUBLIC_NAMES


def test_config_fields():
    fields = [f.name for f in dataclasses.fields(thirdopt.OptimizerConfig)]
    assert fields == ["hess_lipschitz", "third_lipschitz", "sampler_constant", "max_iters",
                      "seed", "tol_mu"]
    assert [f.name for f in dataclasses.fields(thirdopt.ConditionTolerances)] == [
        "grad", "eig", "third"]


def test_optional_parameters():
    found = {name: _optional(func) for name, func in _public_callables()}
    assert {name: opts for name, opts in found.items() if opts} == OPTIONAL_PARAMETERS
