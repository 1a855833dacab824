"""Exact order computations on chainable continua.

Chain covers with rational meshes induce linear preorders on the points
they cover; this package computes those orders exactly, certifies when
they stabilize, and reduces the residual cases to votes of a simulated
ultrafilter.  The catalog module carries the worked example spaces, the
acceptance module the end-to-end experiments, and the cli module a
`chainorder` command over both.
"""

from .catalog import (
    CatalogPoint,
    arc_family,
    catalog_spaces,
    s1_family,
    s2_family,
    s3_family,
    separation_data,
    t_family,
    validate_level,
)
from .chains import (
    ComparisonVerdict,
    chain_order_compare,
    chain_trace,
    equal_or_opposite,
    never_between_after,
    PullbackSequence,
)
from .foundations import EventuallyPeriodicSet, rational, rational_str
from .inverse_limit import (
    InverseSystem,
    ThreadPoint,
    inverse_limit_order,
    tent_system,
    thread_from_letters,
)
from .knaster_witness import build_witness, demonstrate_distinct_orders
from .orientation import (
    decompose_on_cylinder,
    flip,
    in_A_n,
    reach_with_parity,
)
from .ultrafilter import SimulatedUltrafilter

__version__ = "0.1.0"

__all__ = [
    "CatalogPoint",
    "ComparisonVerdict",
    "EventuallyPeriodicSet",
    "InverseSystem",
    "PullbackSequence",
    "SimulatedUltrafilter",
    "ThreadPoint",
    "arc_family",
    "build_witness",
    "catalog_spaces",
    "chain_order_compare",
    "chain_trace",
    "decompose_on_cylinder",
    "demonstrate_distinct_orders",
    "equal_or_opposite",
    "flip",
    "in_A_n",
    "inverse_limit_order",
    "never_between_after",
    "rational",
    "rational_str",
    "reach_with_parity",
    "s1_family",
    "s2_family",
    "s3_family",
    "separation_data",
    "t_family",
    "tent_system",
    "thread_from_letters",
    "validate_level",
    "__version__",
]
