"""How evenly the major index spreads over residue classes.

For any shape, the residue counts deviate from the uniform value f/n by
at most 2 n^1.5 sqrt(f), so large-dimension shapes are almost perfectly
equidistributed.  This script shows the effect numerically and tours the
exact integer inequalities the package checks, including the opposite
hook length machinery that lower-bounds dimensions.
"""

import math

from modmaj import (
    Partition,
    amod_by_character_formula,
    binomial_lower_bound_check,
    capped_excess,
    diagonal_excess,
    diagonal_fibers,
    dimension,
    dist_check,
    equidistribution_check,
    fl_bound_check,
    hook_lengths,
    n_cubed_criterion,
    opposite_hook_lengths,
    partitions_of,
    rect_character,
)

# %% Watch the counts flatten as the dimension grows.

for parts in [(3, 1), (4, 3, 1), (6, 5, 4, 3, 2)]:
    lam = Partition(parts)
    n, f = lam.n, dimension(lam)
    counts = list(amod_by_character_formula(lam))
    spread = max(counts) - min(counts)
    print(
        f"{lam!s:<12} n={n:<3} f={f:<8} counts range "
        f"{min(counts)}..{max(counts)} (uniform would be {f // n})"
    )

# %% The package checks the deviation bound exactly, in integers, by
# clearing denominators and squaring: no floating point anywhere.  Each
# check takes the numbers it compares, here f and the residue counts.

violations = sum(
    not equidistribution_check(dimension(lam), amod_by_character_formula(lam))
    for n in range(1, 15)
    for lam in partitions_of(n)
)
print(f"\nequidistribution bound violations for n <= 14: {violations}")

# %% Once f reaches n^5 the deviation drops below f/n^2; shapes that big
# first appear at n = 17.

for n in (16, 17, 18):
    qualifying = [lam for lam in partitions_of(n) if dimension(lam) >= n**5]
    print(f"n={n}: {len(qualifying)} shapes with f >= n^5")
    for lam in qualifying:
        assert dist_check(dimension(lam), amod_by_character_formula(lam)) is True

# %% f >= n^3 already forces every residue to be hit.

lam = Partition((4, 3, 2, 1, 1, 1))
print(f"\n{lam}: f = {dimension(lam)}, n^3 = {lam.n ** 3}")
print("criterion applies:", n_cubed_criterion(lam.n, dimension(lam)))
print("zero residues:", sorted(amod_by_character_formula(lam).zero_residues()))

# %% Where do dimension lower bounds come from?  Replace each hook length
# by the cell's "opposite" hook length a + b - 1.  The sums agree, the
# product can only grow, and equality happens exactly at rectangles.

for parts in [(4, 4), (5, 2, 1), (3, 3, 3)]:
    lam = Partition(parts)
    hp = math.prod(hook_lengths(lam))
    op = math.prod(opposite_hook_lengths(lam))
    print(f"{lam!s:<10} hook product {hp:<8} opposite product {op:<8} equal: {hp == op}")

# %% Counting cells by opposite hook length gives a unimodal profile
# whose defect from n (the "diagonal excess") controls a clean binomial
# lower bound on the dimension: f >= binom(n, M) / (M+1) for every M up
# to the capped excess.

lam = Partition((4, 4, 4, 4))
print(f"\n{lam}: diagonal profile {diagonal_fibers(lam)}")
print(f"excess {diagonal_excess(lam)}, capped {capped_excess(lam)}")
print("binomial lower bounds hold:", binomial_lower_bound_check(lam, dimension(lam)))

# %% The character-magnitude bound behind the equidistribution statement,
# checked in its exact integer form (both sides raised to the ell-th
# power) over every shape of 12, from chi_ell and f.

ok = all(
    fl_bound_check(12, ell, rect_character(lam, ell), dimension(lam))
    for lam in partitions_of(12)
    for ell in (1, 2, 3, 4, 6, 12)
)
print(f"\ncharacter magnitude bound holds for all shapes of 12: {ok}")
