"""Right least common multiples, balls and the brute-force oracle.

Every semigroup in the library is a bundle of pure functions on plain
hashable values.  This script walks through the two simplest families:
the free monoid on two letters and the semigroup of arithmetic
progressions (r, x) = r + xN under substitution.
"""

from rlcm.catalog import get_semigroup
from rlcm.core import DISJOINT, BruteForcer, enumerate_ball

free = get_semigroup("free:2")
frac = get_semigroup("frac")

print("== balls ==")
ball = enumerate_ball(free, 2)
print("words of length <= 2:", ", ".join(free.display(w) for w in ball))

print()
print("== closed-form right LCMs ==")
for p, q in [("01", "010"), ("01", "1")]:
    got = free.right_lcm(p, q)
    if got is DISJOINT:
        print(f"{p} and {q} have no common extension")
    else:
        print(f"lcm({p}, {q}) = {got.lcm}")

# (1,2) is the odd numbers, (2,3) is 2 + 3N; their intersection is the
# progression 5 + 6N, and the complements live back in the semigroup.
got = frac.right_lcm((1, 2), (2, 3))
print(f"lcm((1,2), (2,3)) = {frac.display(got.lcm)}; "
      f"complements {frac.display(got.p_comp)} and {frac.display(got.q_comp)}")
print("(0,2) and (1,2):",
      frac.right_lcm((0, 2), (1, 2)))  # evens and odds never meet

print()
print("== the brute-force oracle ==")
# The oracle knows nothing about progressions: it intersects sets of
# multiples inside a finite ball and certifies the least one.
search = enumerate_ball(frac, 4)
got = BruteForcer(frac, search).right_lcm((1, 2), (2, 3))
print("brute force finds", frac.display(got.lcm))

# Searching by complements reaches the LCM of long elements without a
# huge product ball: the common multiples examined are p*T and q*T.
zxz = get_semigroup("zxz")
oracle = BruteForcer(zxz, enumerate_ball(zxz, 3),
                     complements=enumerate_ball(zxz, 6))
got = oracle.right_lcm((0, 8), (0, 27))
print("lcm((0,8), (0,27)) in the affine semigroup over Z:",
      zxz.display(got.lcm))
