#!/usr/bin/env python3
# For q > 2 the Cayley graph factors as a semistrong product: split every
# matrix into (strictly-upper part, diagonal), send the first to a complete
# graph and the second to the all-coordinates-differ Hamming companion.

import numpy as np

from uct import (RingSpec, antipodal_hamming_direct, complete_graph,
                 semistrong_product, unitary_cayley)
from uct.theorem_checker import theorem3_relabeling

spec = RingSpec.triangular(2, 3, 1)
q, n = spec.q, spec.n
g = unitary_cayley(spec)

m = q ** (n * (n - 1) // 2)
k_m = complete_graph(m)
hamming_part = antipodal_hamming_direct(n, q)
product = semistrong_product(k_m, hamming_part)
print(f"{spec}: {g}")
print(f"K_{m} * A(H({n},{q})): {product}")

# The relabeling maps matrix encodings onto product positions; after applying
# it, the two adjacency matrices agree pair for pair.
phi = theorem3_relabeling(spec)
print("relabeling of the first six vertices:", phi[:6])
agree = np.array_equal(product.adjacency[np.ix_(phi, phi)], g.adjacency)
print("labeled equality after relabeling:", agree)

# Degree bookkeeping: (deg_K + 1) * deg_A = (m-1+1) * (q-1)^n
print("degrees:", set(int(d) for d in g.degrees()),
      "= m * (q-1)^n =", m * (q - 1) ** n)
