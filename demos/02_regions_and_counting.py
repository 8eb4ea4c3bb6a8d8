#!/usr/bin/env python3
"""Regions, diagonal readings, and the brute-force counting oracles.

A profile carves a staircase region out of the quarter plane.  Monotone
fillings of the region correspond to sequences of partitions read along
the diagonals, interlacing up or down according to the profile signs.
The counting oracles walk those definitions directly and must agree
with the product formulas everywhere.
"""

from planeparts import (
    Partition,
    count_cp,
    count_dspp,
    count_dspp_fillings,
    count_scp,
    cp_gf,
    diagonals_to_filling,
    dspp_gf,
    filling_to_diagonals,
    parse_profile,
    region_cells,
    scp_gf,
)

delta = parse_profile("+--+-+-+")
print("=== the region of profile %s ===" % delta.text)
window = 12
cells = region_cells(delta, window)
print("cells in window %d: %d" % (window, len(cells)))
for c in range(1, 10):
    row = "".join("#" if (c, d) in cells else "." for d in range(1, 14))
    print("row %d  %s" % (c, row))

print()
print("=== a filling and its diagonal reading ===")
diagonals = [
    Partition(p)
    for p in [(4, 1), (5, 4), (5, 2), (3,), (4, 1), (2,), (2, 2), (2, 1), (5, 2, 1)]
]
values = diagonals_to_filling(delta, diagonals, window)
print("total size:", sum(values.values()))
for c in range(1, 10):
    row = ""
    for d in range(1, 14):
        if (c, d) in cells:
            row += "%2d" % values.get((c, d), 0)
        else:
            row += " ."
    print("row %d %s" % (c, row))
back = filling_to_diagonals(cells, values, delta)
print("reading back along diagonals:", " ".join(str(p) for p in back))
print("round-trip exact:", back == diagonals)

print()
print("=== counting oracles vs products ===")
for text in ("+", "-+", "+--"):
    d = parse_profile(text)
    oracle = count_dspp(d, 12)
    agree = oracle == dspp_gf(d, 12)
    print("dspp %-4s oracle==product: %s  %s" % (text, agree, list(oracle.coeffs)))
for text in ("+-", "++-"):
    d = parse_profile(text)
    print("cp   %-4s oracle==product: %s" % (text, count_cp(d, 12) == cp_gf(d, 12)))
for text in ("--", "-+"):
    d = parse_profile(text)
    print("scp  %-4s oracle==product: %s" % (text, count_scp(d, 12) == scp_gf(d, 12)))

print()
print("=== the exponential filling oracle agrees with the transfer oracle ===")
for text in ("-", "+-", "--"):
    d = parse_profile(text)
    direct = count_dspp_fillings(d, 7)
    agree = direct == count_dspp(d, 7)
    print("fillings %-3s == sequences: %s  %s" % (text, agree, list(direct.coeffs)))
