"""Two motivating models of closure-based tolerance.

A pixel is "approximately gray" when it lands in the closure of the gray
diagonal under a modular error ideal, and a received codeword is accepted
when it sits in the closure of the transmitted one under an error ideal.
"""

from approxalg import (
    IdealShiftClosure,
    PolyQuotient,
    ProductRing,
    SetShiftClosure,
    Z,
    closure_member,
    ideal_generated,
)
from approxalg.polynomials import uni_to_str

# --- gray pixels -----------------------------------------------------------

lattice = ProductRing([Z, Z, Z])

pixel = lattice.canon((130, 135, 125))
gray = lattice.canon((130, 130, 130))
print("pixel      :", pixel)
print("nearest gray:", gray)
print("difference :", lattice.sub(pixel, gray))

# tolerance m = 5: the error ideal is 5Z x 5Z x 5Z.  The span-based
# closure absorbs the ideal generated by the diagonal, which is the whole
# lattice, so membership holds through pixel = gray + error
tolerant = IdealShiftClosure(lattice, shift_modulus=5)
print("approximately gray at m=5:",
      closure_member(tolerant, pixel, [(1, 1, 1)]))

# the elementwise shift keeps the gray points themselves as the base set,
# which makes the tolerance sharp: only componentwise multiples of m
# survive in the difference
setwise = SetShiftClosure(lattice, shift_modulus=5)
off_pixel = (130, 137, 125)
print("setwise, (130,135,125):",
      closure_member(setwise, pixel, [gray]))
print("setwise, (130,137,125):",
      closure_member(setwise, off_pixel, [gray]))

# --- noisy codewords --------------------------------------------------------

print()
ring = PolyQuotient(2, (0, 0, 0, 0, 0, 1))  # F2[x]/(x^5), degree-4 words

a = ring.canon((1, 0, 1, 0, 1))  # x^4 + x^2 + 1     bits 10101
b = ring.canon((0, 0, 1, 1))     # x^3 + x^2         bits 00110
c = ring.add(a, b)
print("sum of codewords:", uni_to_str(c))

# the channel may flip the x-coefficient: error ideal <x>
errors = SetShiftClosure(ring, ideal_generated(ring, [(0, 1)]))
received = ring.canon((1, 1, 0, 1, 1))  # x^4 + x^3 + x + 1
print("received        :", uni_to_str(received))
print("accepted        :", closure_member(errors, received, [c]))

garbled = ring.canon((0, 1, 0, 1, 1))
print("garbled accepted:", closure_member(errors, garbled, [c]))
