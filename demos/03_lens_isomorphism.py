"""The invariant subalgebra as an abstract presented algebra.

Elements of degree divisible by N form the lens-type subalgebra.  The
package multiplies abstract lens elements by transporting them through
the generator map into the sphere engine and pulling the product back —
so the hardest structure theorem (the presented algebra is isomorphic to
the invariant subalgebra) is exercised on every single product, and all
phases come out of the engine rather than a printed formula.
"""

from heegaard import (
    SPHERE,
    basis_window_check,
    lens_from_abstract,
    lens_gen,
    lens_relation_suite,
    lens_to_abstract,
)

N = 3
z = lens_gen(N, "z'")
A = lens_gen(N, "A'")
B = lens_gen(N, "B'")
at = lens_gen(N, "at'")

print(f"type N={N}")
print("  image of z'^2  :", lens_from_abstract(z.pow_signed(2)))
print("  image of at'   :", lens_from_abstract(at))
print("  z'* z'         =", z.star() * z)
print("  z' z'*         =", z * z.star())
print("  A' B'          =", A * B)
print("  at' at'*       =", at * at.star())

# pulling an invariant sphere element back to the abstract basis
img = SPHERE.A() * SPHERE.a() * SPHERE.b(N - 1)
print("\ninverse map")
print("  A a b^2  <-  ", lens_to_abstract(img, N))

# the relation suite recomputes every residual through the engine
print("\nrelation suite (window 4)")
entries = lens_relation_suite(N, window=4)
worst = [e for e in entries if not e.ok]
print(f"  {len(entries)} checks, non-passing: {[(e.id, e.status) for e in worst]}")
print("  (the bare-b variant of lense.e only holds at N=1; it is reported,")
print("   never asserted — the N-th power variant is the asserted one)")

# window certificate: exact roundtrips, disjoint leading supports,
# randomized product spot checks
print("\nwindow certificate")
for e in basis_window_check(N, 2, samples=200):
    print(f"  {e.id}: {e.status} ({e.residual})")
