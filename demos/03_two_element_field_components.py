#!/usr/bin/env python3
# Over the two-element field the Cayley graph shatters into complete
# bipartite components paired up by complementary diagonals.

from uct import RingSpec, complete_bipartite_parts, unitary_cayley

for n in [2, 3, 4]:
    spec = RingSpec.triangular(n, 2, 1)
    g = unitary_cayley(spec)
    comps = complete_bipartite_parts(g)
    m = 2 ** (n * (n - 1) // 2)
    print(f"{spec}: {g.vertex_count} vertices, {len(comps)} components "
          f"(expected 2^(n-1) = {2 ** (n - 1)})")
    for parts in comps:
        assert parts is not None, "every component must be complete bipartite"
        a, b = parts
        # labels carry the matrix entry digits; the diagonal slots of the two
        # parts are bitwise complements of each other
        print(f"  component of size {len(a) + len(b)}: K_{{{len(a)},{len(b)}}} "
              f"(expected m = {m})")
print("\nEach part is one diagonal class; a matrix is adjacent exactly to "
      "the matrices whose diagonal is the complement of its own.")
