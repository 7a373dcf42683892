"""Symmetric group characters at rectangular cycle types, the fast way.

At a cycle type with all cycles the same length ell, irreducible
characters collapse to a hook-length quotient times a sign, with no
cancellation.  The sign is read off one abacus pass.  This script compares
that production path against the classical signed rim-hook recursion and
the greedy ribbon peeling, and tours the structure that makes the
shortcut work.
"""

from modmaj import (
    Partition,
    dimension,
    divisors,
    ell_core,
    hook_lengths,
    mn_character,
    partitions_of,
    rect_character,
    rect_character_sign,
    removable_ribbons,
)

# %% The two routes on one example: chi at the fixed-point-free
# involution class of S_8.

lam = Partition((4, 3, 1))
ell = 2
mu = Partition((ell,) * (lam.n // ell))
print(f"shape {lam}, cycle type {mu}")
print("  rim-hook recursion:", mn_character(lam, mu))
print(
    "  hook quotient:      "
    f"{rect_character(lam, ell)}  (magnitude {abs(rect_character(lam, ell))})"
)

# %% The magnitude is literally a quotient of hook lengths: multiples of
# ell in 1..n over hooks divisible by ell.

hooks = hook_lengths(lam)
print(f"\nhook multiset of {lam}: {sorted(hooks, reverse=True)}")
print(f"multiples of {ell} in 1..{lam.n}: {list(range(ell, lam.n + 1, ell))}")
print(f"hooks divisible by {ell}: {sorted(h for h in hooks if h % ell == 0)}")

# %% The character vanishes exactly when the ell-core is nonempty, i.e.
# when the shape cannot be peeled into length-ell ribbons.

for ell in (2, 4):
    core = ell_core(lam, ell)
    chi = rect_character(lam, ell)
    print(f"\nell={ell}: core = {core if core else 'empty'}, chi = {chi}")

# %% The sign comes from ANY greedy peeling: remove length-ell ribbons in
# whatever order, multiply (-1)^height.  Order truly does not matter.
# rect_character skips the peeling: it slides the beads (beta-numbers) on
# each runner mod ell all the way down in one pass.  Beads on one runner
# never pass each other, so the sign is the parity of the bead pairs the
# slide reorders; the greedy peeling stays as the oracle.

lam = Partition((5, 4, 3))
steps = removable_ribbons(lam, 3)
print(f"\nremovable 3-ribbons of {lam}:")
for step in steps:
    print(f"  -> {step.shape} (height {step.height})")
print("sign, first-eligible order:", rect_character_sign(lam, 3, order="first"))
print("sign, last-eligible order: ", rect_character_sign(lam, 3, order="last"))
print("sign, abacus pass:         ", 1 if rect_character(lam, 3) > 0 else -1)

# %% Full agreement sweep, every shape and divisor up to n = 12.

checked = 0
for n in range(1, 13):
    for shape in partitions_of(n):
        for d in divisors(n):
            assert rect_character(shape, d) == mn_character(shape, Partition((d,) * (n // d)))
            checked += 1
print(f"\nhook quotient == rim-hook recursion on {checked} (shape, ell) pairs")

# %% Hooks make the quotient explicit: |chi| of (a+1, 1^b) at the
# ell-rectangular class is a binomial coefficient in floor(a/ell), so each
# hook family is unimodal.

n, ell = 12, 3
row = [abs(rect_character(Partition((a + 1,) + (1,) * (n - a - 1)), ell)) for a in range(n)]
print(f"\n|chi| along hooks of {n} at ell={ell}: {row}")
print(f"dimensions for comparison: {[dimension(Partition((a + 1,) + (1,) * (n - a - 1))) for a in range(n)]}")
