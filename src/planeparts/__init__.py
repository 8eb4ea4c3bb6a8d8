"""Exact enumeration and asymptotics for staircase-region plane partition families.

The package has three layers that check each other:

* product generating functions built from profile exponent multisets
  (series, profiles);
* brute-force counting oracles that walk the defining interlacing
  sequences and region fillings directly (counting, partitions);
* numeric verification of the underlying skew Schur summation formulas
  at z-power specializations (schur), and growth parameters with two
  independent evaluation routes (asymptotics).
"""

from .asymptotics import (
    AsymptoticParams,
    combine_params,
    dspp_params,
    dspp_prefactor,
    dspp_width_constant,
    growth_rate,
    n_exponent,
    prefactor,
    psi_eval,
    psi_table_value,
    ribbon_b_fraction,
    ribbon_params,
    ribbon_rate_fraction,
    scp_b_fraction,
    scp_n_exponent_fraction,
    scp_params,
)
from .counting import (
    count_cp,
    count_dspp,
    count_dspp_fillings,
    count_scp,
)
from .partitions import (
    Partition,
    is_horizontal_strip,
    partitions_of,
    partitions_up_to,
)
from .profiles import (
    ExponentMultiset,
    Profile,
    diagonals_to_filling,
    epsilon,
    filling_to_diagonals,
    multiset_w1,
    multiset_w2,
    multiset_w3,
    multiset_w4,
    multiset_w5,
    parse_profile,
    region_cells,
    reverse_negate,
    run_lengths,
)
from .schur import (
    IdentityReport,
    run_battery,
    skew_schur_z,
    verify_alternating_summation,
    verify_lemma_s1,
    verify_lemma_s2,
    verify_macdonald,
    verify_summation,
)
from .series import (
    ProductSpec,
    TruncatedSeries,
    classical_gf,
    cp_gf,
    cp_product_spec,
    dspp_gf,
    dspp_gf_unsimplified,
    dspp_product_spec,
    expand_product,
    scp_gf,
    scp_gf_unsimplified,
    scp_product_spec,
)

__version__ = "0.1.0"
