"""Strong connections, their axioms, and the associated idempotents.

A strong connection assigns to each cyclic basis element a tensor whose
multiplied legs return the unit and whose legs are colinear of opposite
degrees.  Grouping the right legs gives the idempotent matrix of the
associated rank-one module.

Two recorded coefficient conventions fail these checks with specific
residuals; the package keeps them as flagged discrepancies next to the
corrected and parameter-zero variants that pass.
"""

from heegaard import (
    SPHERE,
    associated_idempotent,
    idempotent_check,
    prolong_is_invariant,
    prolong_phi,
    strong_connection_algebraic,
    strong_connection_isometric,
    verify_strong_connection,
)
from heegaard.principal import LaurentHopfElement

N = 3
print(f"corrected connection at N={N}")
conn = strong_connection_algebraic(N, "corrected")
print("  degree-1 value:", conn.values[1])
print("  axioms:", all(c.ok for c in verify_strong_connection(conn)))

E = associated_idempotent(conn, 1)
chk = idempotent_check(E, N)
print("  idempotent matrix:", E)
print(f"  squares to itself: {chk.idempotent}; entries invariant: {chk.invariant}")

print("\nprinted-coefficient variant (kept as a flagged discrepancy)")
printed = strong_connection_algebraic(N, "printed_p_inverse")
classes = printed.values[1].legs_multiplied_by_class(N)
print("  unit-return residual:", classes[1] - SPHERE.one())
Ep = associated_idempotent(printed, 1)
top_left = (Ep * Ep)[0][0] - Ep[0][0]
print("  idempotency residual at the corner:", top_left)

print("\nparameter-zero connection")
iso = strong_connection_isometric(4)
print("  axioms:", all(c.ok for c in verify_strong_connection(iso)))
Ei = associated_idempotent(iso, 1)
print("  idempotent:", Ei, "->", idempotent_check(Ei, 4).idempotent)

print("\ncircle prolongation")
u = LaurentHopfElement.generator_power
t = prolong_phi(SPHERE.a(), u(1), N)
print("  phi(a (x) u) =", t)
print("  image invariant under the cyclic action:", prolong_is_invariant(t, N))
