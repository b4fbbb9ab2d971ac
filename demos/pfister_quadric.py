"""Quadratic forms: classification, isotropic vectors, and a pointless
quadric whose isometries still form a sizeable finite 2-group.

Ends with the refutation loop: random projective candidates never lie
on the anisotropic diagonal form.
"""

from aniso import fieldmatrix
from aniso.quadform import (QuadraticForm, arf_invariant_class,
                            arf_normal_form, extract_isotropic_from_order_p,
                            pfister_run)
from aniso.scalars import Field, prime_field


def main():
    f2 = prime_field(2)
    field = Field(f2)
    hyperbolic = QuadraticForm(f2, 2, {(0, 1): field.one})
    anisotropic = QuadraticForm(f2, 2, {(0, 0): field.one, (0, 1): field.one,
                                        (1, 1): field.one})
    a1 = arf_normal_form(hyperbolic).arf
    a2 = arf_normal_form(anisotropic).arf
    print(f"char 2 invariants: xy -> {a1}, x^2+xy+y^2 -> {a2}, "
          f"same class: {arf_invariant_class(a1, a2, field)}")

    f3 = prime_field(3)
    field3 = Field(f3)
    q3 = QuadraticForm(f3, 3, {(i, i): field3.one for i in range(3)})
    cyc = fieldmatrix.mat_from_rows([
        [field3.zero, field3.zero, field3.one],
        [field3.one, field3.zero, field3.zero],
        [field3.zero, field3.one, field3.zero]])
    vec = extract_isotropic_from_order_p(cyc, q3)
    print(f"\norder-3 isometry of x^2+y^2+z^2 over F_3 yields the isotropic "
          f"vector {tuple(str(x) for x in vec)}")

    group, refuted = pfister_run(3, 25, seed=1)
    print(f"\n8-variable diagonal form over Q(a1,a2,a3): two projective "
          f"isometries close into a group of order {group.order} "
          f"(nonabelian: {group.nonabelian}, element orders "
          f"{sorted(set(group.projective_orders))})")
    print(f"  order divides the announced bound 8^7: "
          f"{group.order_divides_bound}")
    print(f"  {refuted}/25 random projective candidates refuted: the form "
          "stays pointless")


if __name__ == "__main__":
    main()
