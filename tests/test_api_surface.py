"""The public names, the public members of each public class and every
optional parameter behind them, pinned.

Each optional parameter or config field is a setting that tests and
benchmarks must cover, and each public member is API that callers may
come to rely on, so adding either has to come with an edit here.
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
    "Subspace", "SymTensor3", "Trace", "Verdict", "check_third_order",
    "classify_hessian", "corpus", "descent_witness", "eig_sym", "escape_subspace",
    "finite_difference_check", "minimize", "null_space", "quartic_plus_sixth", "rate_report",
    "sample_direction", "smoothness_bounds", "solve_cubic_model", "stationarity",
]

# Public members of each public class: the public names its class body
# defines (methods, properties, enum members, defaulted fields) plus its
# dataclass fields.
PUBLIC_MEMBERS = {
    "ConditionReport": ("_model", "grad_norm", "holds", "min_eig", "null_dim", "third_residual",
                        "to_dict", "tolerances", "verdict"),
    "ConditionTolerances": ("eig", "grad", "third"),
    "CubicSolution": ("model_value", "radius", "secular_evals", "step"),
    "DerivativeBundle": ("grad", "hess", "third", "value"),
    "DescentWitness": ("direction", "order", "predicted_decrease", "step"),
    "DirectionSample": ("direction", "draws"),
    "EigenDecomp": ("dim", "eigenvalues", "eigenvectors", "spectral_scale"),
    "EscapeSubspace": ("curvature_bound", "is_empty", "proj_norm", "subspace", "suffix_index"),
    "FdResiduals": ("grad", "hess", "third", "worst"),
    "HessianClass": ("DEGENERATE", "LOCAL_MAX", "LOCAL_MIN", "STRICT_SADDLE"),
    "IterationRecord": ("flags", "grad_norm", "iteration", "phase", "proj_norm", "stationarity",
                        "step_norm", "subspace_dim", "value"),
    "Objective": ("bundle", "dim", "value"),
    "OptimizerConfig": ("approx_factor", "hess_lipschitz", "max_iters", "sampler_constant",
                        "seed", "third_lipschitz", "tol_mu"),
    "OracleObjective": ("bundle", "dim", "value"),
    "Polynomial": ("bundle", "bundle_many", "constant", "degree", "dim", "from_dict", "terms",
                   "to_dict", "value", "variable", "zero"),
    "RateReport": ("mu_bound", "qualifying", "satisfied", "static_proj_bound"),
    "SamplerBudgetError": (),
    "SmoothnessConstants": ("hess_lipschitz", "third_lipschitz", "valid_radius"),
    "Subspace": ("basis", "dim", "empty", "full", "is_empty", "rank"),
    "SymTensor3": ("dim", "entries", "frobenius_norm", "transform", "trilinear", "zeros"),
    "Trace": ("all_flags_ok", "approx_factor", "config", "cubic_records", "dim", "final_point",
              "final_value", "initial_point", "initial_value", "iterations", "reason", "records",
              "third_records", "values"),
    "Verdict": ("FIRST_ORDER_FAIL", "HOLDS", "SECOND_ORDER_FAIL", "THIRD_ORDER_FAIL"),
}

# Public callables (functions, constructors, methods) that take optional
# parameters; every other public callable takes none.
OPTIONAL_PARAMETERS = {
    "ConditionTolerances": ("grad", "eig", "third"),
    "OptimizerConfig": ("sampler_constant", "max_iters", "seed", "tol_mu"),
    "bench.run_suite": ("seed",),
    "check_third_order": ("tols",),
    "descent_witness": ("seed",),
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


def _members(cls) -> tuple:
    names = {attr for attr in vars(cls) if not attr.startswith("_")}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return tuple(sorted(names))


def test_public_names():
    assert thirdopt.__all__ == PUBLIC_NAMES


def test_public_members():
    classes = {name: getattr(thirdopt, name) for name in thirdopt.__all__}
    found = {name: _members(cls) for name, cls in classes.items() if inspect.isclass(cls)}
    assert found == PUBLIC_MEMBERS


def test_config_fields():
    fields = [f.name for f in dataclasses.fields(thirdopt.OptimizerConfig)]
    assert fields == ["hess_lipschitz", "third_lipschitz", "sampler_constant", "max_iters",
                      "seed", "tol_mu"]
    assert [f.name for f in dataclasses.fields(thirdopt.ConditionTolerances)] == [
        "grad", "eig", "third"]


def test_optional_parameters():
    found = {name: _optional(func) for name, func in _public_callables()}
    assert {name: opts for name, opts in found.items() if opts} == OPTIONAL_PARAMETERS
