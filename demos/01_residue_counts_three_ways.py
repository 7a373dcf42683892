"""Counting standard Young tableaux by major index residue, three ways.

For a partition shape of n, count the standard tableaux whose major index
falls in each residue class mod n.  The package computes this vector by
three independent algorithms; this script walks through all of them on a
few small shapes and checks they agree.
"""

from modmaj import (
    Partition,
    amod_by_character_formula,
    amod_by_enumeration,
    amod_by_qhook,
    descent_set,
    dimension,
    enumerate_syt,
    maj,
    maj_generating_polynomial,
)

# %% Route 1: count the tableaux themselves.  A tableau is a chain of
# shapes in Young's lattice, one cell per entry; entry k+1 adds k to the
# major index when it lands in a higher row than entry k.  The library
# counts these chains level by level, merging chains that reach the same
# (subshape, row of the last entry), so it never lists the tableaux.  Below,
# the brute-force walk lists them and reads off descents; its histogram of
# the major index mod n is the oracle of that count.

shape = Partition((3, 2))
print(f"shape {shape}, {dimension(shape)} standard tableaux\n")
for tab in enumerate_syt(shape):
    print(tab)
    print(f"  descents {sorted(descent_set(tab))}, maj = {maj(tab)}\n")
print("residue counts by enumeration:", list(amod_by_enumeration(shape)))

# %% Route 2: the q-analogue of the hook length formula.  The polynomial
# below has the full major index distribution as its coefficients; folding
# exponents mod n (i.e. reducing mod q^n - 1) gives the same vector
# without touching a single tableau.  The library evaluates at q = 2^w, so
# a polynomial is one big integer whose w-bit digits are its coefficients.
# The quotient of the hook formula is a product of cyclotomic polynomials
# Phi_d, one power per d read off the hooks, so no polynomial is divided:
# the library multiplies the Phi_d(2^w) modulo 2^(wn) - 1, where 2^(wn) is 1
# just as q^n is 1 mod q^n - 1, so the product's n digits are the folded
# counts.  The same product modulo 2^(w(deg+1)) - 1, a modulus above the
# polynomial's value, gives its deg + 1 coefficients as they are.

poly = maj_generating_polynomial(shape)
print("\nmaj generating polynomial:", poly)
print("residue counts by q-hook:  ", list(amod_by_qhook(shape)))

# %% Route 3: a character formula.  The counts are multiplicities of an
# induced representation, and unwinding that through Ramanujan sums needs
# only one symmetric group character per divisor of n -- by far the
# fastest route for large shapes.

print("residue counts by formula: ", list(amod_by_character_formula(shape)))

# %% The three routes agree everywhere.  A quick sweep over all shapes of
# every n up to 10:

from modmaj import partitions_of

checked = 0
for n in range(1, 11):
    for lam in partitions_of(n):
        one = amod_by_enumeration(lam)
        two = amod_by_qhook(lam)
        three = amod_by_character_formula(lam)
        assert one == two == three, lam
        checked += 1
print(f"\nall three routes agree on {checked} shapes with n <= 10")

# %% A shape large enough that enumeration is hopeless: the residue
# counts of a 33-cell shape, in milliseconds via the formula route.

big = Partition((8, 7, 6, 5, 4, 2, 1))
print(f"\nshape {big}: dimension = {dimension(big)}")
print("counts:", list(amod_by_character_formula(big)))
