"""
Anatomy of a three-color partition of Z_13
==========================================

Build the cube-residue classes mod 13 by hand, watch each of the four
conditions hold, and render the induced edge coloring of K_13.
"""

import numpy as np

from ramsey_forge import build_partition, check_candidate, export_coloring

N = 13
p = build_partition(N=N, m=3, x=2)


def sums(A, B):
    """{a + b mod N : a in A, b in B}, ascending."""
    return np.unique(np.add.outer(A, B) % N)


# class i collects the residues 2^e with e = i (mod 3), ascending
for i, cls in enumerate(p.classes):
    print(f"X_{i} = {cls.tolist()}")

# symmetric: each class contains the negation of each of its members
X0 = p.classes[0]
print("\n-X_0 =", sorted(((N - X0) % N).tolist()), "(same set)")

# sum-free: no element of X_0 is a sum of two of them
S = sums(X0, X0)
print("X_0 + X_0 =", S.tolist())
print("overlap with X_0:", np.intersect1d(S, X0).tolist() or "none")

# basis: those sums are exactly 0 plus everything outside X_0
complement = np.setdiff1d(np.arange(N), X0)
print("X_0 + X_0 covers complement of X_0:", np.array_equal(S, complement))

# triangle condition: cross sums hit every nonzero residue
for j in (1, 2):
    covers = np.array_equal(sums(X0, p.classes[j]), np.arange(1, N))
    print(f"X_0 + X_{j} = all of Z_13 minus 0: {covers}")

report = check_candidate(N, 3, 2)
print("\nfull check:", report.to_json())

# the DOT rendering colors the 78 edges of K_13 in red/blue/green
dot = export_coloring(p, "dot")
print("\nfirst lines of the DOT document:")
print("\n".join(dot.splitlines()[:6]))
