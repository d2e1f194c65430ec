"""Exact-arithmetic verification of minimal module ladders.

The library reconstructs root-system data for the maximal compact
subgroups of simple real Lie groups, stores the catalog of minimal
K-type ladders, and machine-checks the identities behind the
classification: line-preserver uniqueness, ladder disjointness,
lattice periods, and infinitesimal characters.  It computes on integers:
vectors and weights go in and come out as fractions.Fraction values,
while Weyl group elements stay integer matrices at a fixed scale, made
only to be compared.  Nothing here floats.
"""

from .registry import (
    MinimalModuleRecord,
    RealFormRecord,
    all_default_records,
    builtin_records,
    find_record,
    instantiate_family,
    load,
    save,
)
from .rootsys import KSpace, RootSystem, Weight, make_root_system, weight
from .verify import (
    CHECK_NAMES,
    CheckReport,
    VerifyConfig,
    run_all,
    run_check,
    suite_status,
)
from .weyl import WeylWord, line_preservers

__version__ = "1.0.0"

__all__ = [
    "CHECK_NAMES",
    "CheckReport",
    "KSpace",
    "MinimalModuleRecord",
    "RealFormRecord",
    "RootSystem",
    "VerifyConfig",
    "Weight",
    "WeylWord",
    "all_default_records",
    "builtin_records",
    "find_record",
    "instantiate_family",
    "line_preservers",
    "load",
    "make_root_system",
    "run_all",
    "run_check",
    "save",
    "suite_status",
    "weight",
]
