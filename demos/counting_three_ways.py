"""Counting bounded plane partitions three independent ways.

A plane partition of shape lambda bounded by m fills the Young diagram
with entries in [0, m], weakly decreasing along rows and down columns.
We refine the count by the number of rows containing a 0 (marking each
such row by x) and compare three routes to the same polynomial:

  1. enumerate everything and tally rows containing 0,
  2. enumerate everything and tally rows containing the bound m,
  3. take a determinant of binomial coefficients.

That routes 1 and 2 agree is the refined symmetry this package is built
around; route 3, ``refined_determinant``, is how you compute it without
enumerating anything.  The polynomial matrix it stands for is printed
and its determinant, by the slow general ``det_division_free``, checked
against it.
"""

from lgvlab import (
    Partition,
    det_division_free,
    enumerate_plane_partitions,
    genfun_by_enumeration,
    lgv_matrix,
    refined_determinant,
    sweep,
)

shape = Partition([2, 1])
bound = 2

print(f"shape {list(shape.parts)}, entries bounded by {bound}\n")

print("the fillings, with their two statistics:")
for pp in enumerate_plane_partitions(shape, bound):
    print(f"  {[list(r) for r in pp.rows]}   rows with 0: {pp.zero_rows()}   "
          f"rows with {bound}: {pp.max_rows()}")

zeros = genfun_by_enumeration(shape, bound, "zeros")
maxes = genfun_by_enumeration(shape, bound, "maxes")
print(f"\nroute 1 (tally zero-rows):  {zeros!r}")
print(f"route 2 (tally max-rows):   {maxes!r}")

matrix = lgv_matrix(shape, bound)
print("\nroute 3, the binomial determinant.  The matrix:")
for i in range(matrix.n):
    print("  " + "   ".join(f"{matrix[i, j]!r:22}" for j in range(matrix.n)))
det = refined_determinant(shape, bound)
print(f"determinant: {det!r}")

assert det == det_division_free(matrix)
assert zeros == maxes == det
print(f"\nall three agree; at x=1 the polynomial counts "
      f"all {det(1)} fillings")

print("\nsweeping every shape of size <= 5 and every bound <= 3 ...")
report = sweep(5, 3)
failures = report["results"]["failures"]
print(f"{report['results']['instances']} instances checked, "
      f"{failures} disagreements, {report['runtime_ms']} ms")
assert failures == 0
