"""Multiply polynomials in Z_q[x]/(x^N + 1) three ways and compare.

The forward transform takes natural order to bit-reversed order and the
inverse returns it, so no bit-reversal pass ever runs. The inverse
butterflies halve both legs at every stage, which is why no final
multiplication by N^-1 appears anywhere. Each polynomial carries its
modulus, which with its length fixes the twiddle table its transforms use.
"""

import numpy as np

from nttsim.modarith import ntt_modulus
from nttsim.ntt import (
    Polynomial,
    cached_twiddles,
    intt_gs,
    ntt_ct,
    pointwise_mul,
    polymul_ntt,
    schoolbook_negacyclic,
)

mod = ntt_modulus(14, 8)
tw = cached_twiddles(mod, 8)
print(f"N=8, q={mod.q}, psi={tw.psi} (psi^8 = {pow(tw.psi, 8, mod.q)} = q-1)\n")

a = Polynomial.from_ints([1, 2, 3, 4, 0, 0, 0, 0], mod)
b = Polynomial.from_ints([5, 6, 7, 0, 0, 0, 0, 0], mod)

fa = ntt_ct(a)
fb = ntt_ct(b)
print(f"a           = {a.to_ints()}")
print(f"ntt(a)      = {fa.to_ints()}  (bit-reversed point values)")
product = intt_gs(pointwise_mul(fa, fb))
print(f"a*b via ntt = {product.to_ints()}")
print(f"schoolbook  = {schoolbook_negacyclic(a, b).to_ints()}\n")

# the wrap: x^(N-1) * x = x^N = -1
x7 = Polynomial.from_ints([0] * 7 + [1], mod)
x1 = Polynomial.from_ints([0, 1] + [0] * 6, mod)
print(f"x^7 * x = {polymul_ntt(x7, x1).to_ints()}  (= -1 mod q)\n")

# bulk check at a realistic size
big = ntt_modulus(32, 1024)
big_tw = cached_twiddles(big, 1024)
gen = np.random.default_rng(0)
batch = gen.integers(0, big.q, size=(200, 1024), dtype=np.uint64)
from nttsim.ntt import intt_gs_array, ntt_ct_array

ok = np.array_equal(intt_gs_array(ntt_ct_array(batch, big_tw), big_tw), batch)
print(f"roundtrip intt(ntt(x)) == x for 200 random degree-1024 polys: {ok}")
