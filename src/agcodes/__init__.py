"""Evaluation codes from minors of a matrix of variables over a finite field.

The package builds the code spanned by all minors of an l x l' variable
matrix evaluated over every matrix point, together with the machinery the
construction carries with it: exact finite field arithmetic, the affine
matrix substitutions acting on the code, the minimum weight family, and the
classical projective relatives for cross-checking.

The package namespace re-exports the everyday entry points below; every
other name is imported from its submodule (fields, matrices, minors, code,
group, grassmann, params, limits, verify).  The group and grassmann names
load their submodule on first access (PEP 562), so that importing the
package, as every scan does, compiles neither.
"""

from .code import LinearCode, build, min_distance, min_weight_codewords, weight_distribution
from .limits import CapExceeded
from .params import CodeParams, min_distance_formula

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CodeParams",
    "LinearCode",
    "build",
    "build_grassmann_code",
    "cell_restriction_compare",
    "enumerate_group",
    "min_distance",
    "min_distance_formula",
    "min_weight_codewords",
    "min_weight_witness",
    "weight_distribution",
]

# re-exports bound on first access: name -> submodule
_LAZY = {
    "build_grassmann_code": "grassmann",
    "cell_restriction_compare": "grassmann",
    "enumerate_group": "group",
    "min_weight_witness": "group",
}


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(f"{__name__}.{submodule}", fromlist=[name])
    globals()[name] = value = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
