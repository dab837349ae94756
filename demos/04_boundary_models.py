"""Boundary models as exact affine partial injections of Z.

Each model represents its generators as maps n -> alpha*n + beta on an
arithmetic progression; composition solves congruences exactly, so the
defining relations are decided with zero tolerance.
"""

from rlcm.boundary import (affine_adjoint, affine_compose, partition_check,
                           range_projection, scale, shift,
                           verify_boundary_suite, verify_model_isomorphisms)

print("== affine partial injections ==")
s = shift(1)
s2 = scale(2)
print("s:", s)
print("s2:", s2)
print("s2*:", affine_adjoint(s2))
print("s2 s2*:", range_projection(s2))
print("s2 u:", affine_compose(s2, s))
print("u u s2:", affine_compose(s, affine_compose(s, s2)))

print()
print("== partitions of Z ==")
evens = range_projection(s2)
odds = range_projection(affine_compose(s, s2))
print("evens + odds:", partition_check([evens, odds]).status)
print("evens + evens:", partition_check([evens, evens]).status)

print()
print("== relation suites ==")
for name in ("Q2", "QN", "BS1n:2"):
    print(f"-- {name}")
    for line in verify_boundary_suite(name).lines():
        print(line)

print()
print("== generator maps between the models ==")
for line in verify_model_isomorphisms().lines():
    print(line)

# Q2 is the boundary model of BS(1,2)+ = X* ⋈ N: its generators u and s2
# are s_1 and t_0 of the binary adding machine (Q2-BS12 above), and its
# relations are that product's K1/K2/Q1/Q2 table.
assert (verify_boundary_suite("Q2").lines()
        == verify_boundary_suite("BS1n:2").lines())
