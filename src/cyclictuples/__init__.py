"""Cyclic and nontransitive probability tuples.

Exact decisions and constructive witnesses for tuples of cycle
probabilities P(U_{i+1} > U_i), closed-form volumes and order-statistic
densities for the fully solved triple case, and a seeded, reproducible
Monte Carlo engine that checks every quantitative claim.
"""

from .core import (
    DensityGrid,
    DiscreteDist,
    HypothesisNotMetError,
    InvalidTupleError,
    MCEstimate,
    ProbTuple,
    Reason,
    Status,
    Verdict,
    WitnessSystem,
    complement,
    format_tuple,
    in_region,
    parse_tuple,
    reverse,
    rotate,
)
from .triple import (
    OMEGA,
    P3,
    P3_STAR,
    density,
    density_stats,
    exact_volumes,
    integrate_density,
    is_cyclic_triple,
    is_nontransitive_triple,
    sample_ordered_cyclic,
    unrestricted_min_density,
    unrestricted_min_stats,
)
from .ntuple import (
    PnBounds,
    alternating_count,
    andre_series,
    build_witness,
    decide_ntuple,
    efron_dice,
    moon_moser_dice,
    pi_n,
    pn_bounds,
    verify_witness,
    vol_dn_star,
)
from .mc import EstimatorSpec, estimate, histogram

__version__ = "0.1.0"

__all__ = [
    "DensityGrid",
    "DiscreteDist",
    "EstimatorSpec",
    "HypothesisNotMetError",
    "InvalidTupleError",
    "MCEstimate",
    "OMEGA",
    "P3",
    "P3_STAR",
    "PnBounds",
    "ProbTuple",
    "Reason",
    "Status",
    "Verdict",
    "WitnessSystem",
    "alternating_count",
    "andre_series",
    "build_witness",
    "complement",
    "decide_ntuple",
    "density",
    "density_stats",
    "efron_dice",
    "estimate",
    "exact_volumes",
    "format_tuple",
    "histogram",
    "in_region",
    "integrate_density",
    "is_cyclic_triple",
    "is_nontransitive_triple",
    "moon_moser_dice",
    "parse_tuple",
    "pi_n",
    "pn_bounds",
    "reverse",
    "rotate",
    "sample_ordered_cyclic",
    "unrestricted_min_density",
    "unrestricted_min_stats",
    "verify_witness",
    "vol_dn_star",
]
