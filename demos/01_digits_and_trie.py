"""
Digit expansions and nearest-neighbour valuations
=================================================

Walks through the 2-adic encoding of integer points and shows how the
digit trie answers "how close is the nearest stored point" queries.
"""

import numpy as np

from padiclearn import LearningParams
from padiclearn.trie import PadicTrie


# times p divides x, capped at cap (so x == 0 maps to cap)
def valuation(x, p, cap):
    v = 0
    while v < cap and x % p ** (v + 1) == 0:
        v += 1
    return v


# base-p digits of every coordinate, least significant first, one round
# of D digits per power of p
def digits(point, p, E):
    return [x // p**e % p for e in range(E) for x in point]


# Work in Z_2 with 3 digits of precision and 2 coordinates per point.
params = LearningParams(p=2, E=3, D=2, M=8)

# The valuation of an integer is the number of times p divides it,
# capped at E.  Larger valuation means closer to zero in the p-adic
# metric.
for x in (0, 1, 2, 4, 6, 12):
    print(f"val_2({x}) capped at 3 = {valuation(x, 2, 3)}")

# A point is encoded by interleaving the base-p digits of its
# coordinates, least significant first.  Two points share a long
# common prefix exactly when every coordinate pair agrees to high
# 2-adic precision.
for point in [(0, 0), (1, 0), (2, 2), (5, 7)]:
    print(f"digits of {point}: {digits(point, params.p, params.E)}")

# Build a trie over a handful of stored points.
stored = np.array([(0, 0), (4, 4), (3, 5)])
trie = PadicTrie(params, stored)
print(f"trie holds {len(stored)} points in {trie.node_count} nodes")

# nns_valuation_batch(qs) returns, per query q, max over stored s of
# min over coordinates of val_2(q_d - s_d).  A return of E means q is
# congruent to some stored point mod 2^E, i.e. indistinguishable at this
# precision.
queries = [(0, 0), (1, 0), (2, 2), (4, 4), (7, 1)]
for query, v in zip(queries, trie.nns_valuation_batch(queries)):
    print(f"query {query}: nearest stored point matches to 2^{v}")

# The same answers come from brute force, just slower.  The trie walks
# one root-to-leaf path instead of scanning every stored point.
query = (7, 1)
brute = max(
    min(valuation(int(q) - int(s), 2, 3) for q, s in zip(query, row))
    for row in stored
)
assert brute == trie.nns_valuation_batch([query])[0]
print(f"brute force agrees at {query}: {brute}")
