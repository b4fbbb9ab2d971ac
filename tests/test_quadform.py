import itertools
import random
from fractions import Fraction

import pytest

from aniso import fieldmatrix
from aniso.quadform import (AllZeroCandidate, CharTwo, DegenerateForm,
                            KTooLarge, NotIsometry, NotOrderP,
                            OrderExceedsBound, QuadFormError,
                            QuadraticForm, WrongCharacteristic,
                            _artin_schreier_reduce, _bil, _block_value,
                            _first_isotropic, _plane_block,
                            arf_invariant_class, arf_normal_form,
                            associated_bilinear, canonical_char2_form,
                            descent_step, diagonalize,
                            extract_isotropic_from_order_p, involution_check,
                            is_nondegenerate, pfister_build,
                            pfister_group_closure, pfister_refute_point,
                            pfister_run, random_candidate)
from aniso.scalars import (DescriptorMismatch, Field, FieldTooLarge, cyclotomic,
                           finite_field, function_field, prime_field, rationals)
from oracles import (artin_schreier_image, bil_by_elements, enumerate_nondegenerate_forms,
                     evaluate_by_elements, forms_equivalent_bruteforce,
                     random_candidate_by_elements, represents_zero_exhaustive,
                     transform_by_elements)


Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F4 = finite_field(2, 2)
F5 = prime_field(5)


def form(descriptor, dim, coeffs_ints):
    field = Field(descriptor)
    return QuadraticForm(descriptor, dim,
                         {k: field.from_int(v) for k, v in coeffs_ints.items()})


def test_form_canonicalization_and_eval():
    q = form(Q, 2, {(0, 0): 1, (0, 1): 0, (1, 1): -1})
    assert (0, 1) not in q.coeffs  # zeros dropped
    assert q == form(Q, 2, {(0, 0): 1, (1, 1): -1})
    assert hash(q) == hash(form(Q, 2, {(0, 0): 1, (1, 1): -1}))
    field = Field(Q)
    assert q.evaluate((field(3), field(2))) == field(5)
    with pytest.raises(QuadFormError):
        QuadraticForm(Q, 2, {(1, 0): Field(Q).one})  # lower index pair


def test_transform_is_substitution():
    q = form(Q, 2, {(0, 0): 1, (1, 1): 1})
    field = Field(Q)
    c = fieldmatrix.mat_from_rows([[field(1), field(2)],
                                   [field(0), field(1)]])
    moved = q.transform(c)
    # substitute x -> x + 2y: x^2 + 4xy + 5y^2
    assert moved == form(Q, 2, {(0, 0): 1, (0, 1): 4, (1, 1): 5})


@pytest.mark.parametrize("descriptor", [Q, cyclotomic(5), prime_field(7), finite_field(2, 4),
                                        function_field(Q, ("a1", "a2"))], ids=repr)
def test_payload_sums_match_the_element_folds(descriptor):
    # evaluate, transform and _bil sum each entry with one dot of payload
    # pairs; the element folds add one term at a time. Zeros are drawn
    # often so that skipped terms and empty sums are exercised
    field, rng = Field(descriptor), random.Random(3030)

    def entry():
        return field.zero if rng.random() < 0.3 else field.random_element(rng, height=5)

    for _ in range(12):
        n = rng.randint(1, 4)
        q = QuadraticForm(descriptor, n, {(i, j): entry() for i in range(n)
                                          for j in range(i, n)})
        matrix = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        x, y = [entry() for _ in range(n)], [entry() for _ in range(n)]
        got, want = q.evaluate(x), evaluate_by_elements(q, x)
        assert got == want and repr(got) == repr(want)
        got, want = q.transform(matrix), transform_by_elements(q, matrix)
        assert got == want and list(got.coeffs) == list(want.coeffs)
        assert repr(got) == repr(want)
        got, want = _bil(matrix, x, y, field), bil_by_elements(matrix, x, y, field)
        assert got == want and repr(got) == repr(want)


def test_bilinear_gram_oracles():
    q1 = form(Q, 1, {(0, 0): 1})
    assert associated_bilinear(q1) == ((Field(Q).from_int(2),),)

    hyp = form(F2, 2, {(0, 1): 1})
    gram = associated_bilinear(hyp)
    f = Field(F2)
    assert gram == ((f.zero, f.one), (f.one, f.zero))  # alternating in char 2

    diag = form(Q, 2, {(0, 0): 3, (1, 1): -5})
    g = associated_bilinear(diag)
    field = Field(Q)
    assert g[0][0] == field(6) and g[1][1] == field(-10)
    assert g[0][1].is_zero


def test_payload_loops_keep_their_exceptions_on_mixed_fields():
    # evaluate, transform and _bil check descriptors once and run on
    # payloads; an element of another field is still DescriptorMismatch and
    # a value that is no element of the field still TypeError
    q = form(F5, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 3})
    f3, f5 = Field(F3), Field(F5)
    assert q.evaluate([1, 2]) == f5(2)
    with pytest.raises(DescriptorMismatch):
        q.evaluate([f3(1), 1])
    for value in (Fraction(1, 2), "x"):
        with pytest.raises(TypeError):
            q.evaluate([value, 1])
    with pytest.raises(DescriptorMismatch):
        q.transform(fieldmatrix.identity(f3, 2))
    gram = associated_bilinear(q)
    assert _bil(gram, [f5(1), f5(2)], [f5(3), f5(1)], f5) == f5(2)
    with pytest.raises(DescriptorMismatch):
        _bil(gram, [f3(1), f3(1)], [f5(1), f5(1)], f5)
    with pytest.raises(DescriptorMismatch):
        _bil(associated_bilinear(form(F3, 2, {(0, 1): 1})), [f5(1)] * 2, [f5(1)] * 2, f5)


def test_nondegeneracy():
    assert is_nondegenerate(form(Q, 2, {(0, 0): 1, (1, 1): 1}))
    assert not is_nondegenerate(form(Q, 2, {(0, 0): 1}))
    # char 2: odd-dimensional diagonal forms have singular alternating gram
    assert not is_nondegenerate(form(F2, 1, {(0, 0): 1}))


def test_diagonalize_oracle_and_random():
    res = diagonalize(form(Q, 2, {(0, 1): 1}))
    field = Field(Q)
    assert res.diagonal == (field.one, field(Fraction(-1, 4)))

    rng = random.Random(31)
    for _ in range(25):
        dim = rng.randrange(1, 5)
        while True:
            coeffs = {(i, j): rng.randrange(-4, 5)
                      for i in range(dim) for j in range(i, dim)}
            q = form(Q, dim, coeffs)
            if is_nondegenerate(q):
                break
        res = diagonalize(q)
        target = QuadraticForm(Q, dim, {(i, i): a
                                        for i, a in enumerate(res.diagonal)})
        assert q.transform(res.change_of_basis) == target
        assert all(not a.is_zero for a in res.diagonal)


def test_diagonalize_rejects_char2_and_degenerate():
    with pytest.raises(CharTwo):
        diagonalize(form(F2, 2, {(0, 1): 1}))
    with pytest.raises(DegenerateForm):
        diagonalize(form(Q, 2, {(0, 0): 1}))


def test_arf_normal_form_oracles():
    hyp = form(F2, 2, {(0, 1): 1})
    assert arf_normal_form(hyp).arf.is_zero

    aniso = form(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert arf_normal_form(aniso).arf == Field(F2).one

    res = arf_normal_form(form(F2, 4, {(0, 1): 1, (2, 3): 1}))
    assert res.arf.is_zero
    assert res.canonical_form == canonical_char2_form(F2, 4, res.arf)


def test_plane_block_normalizes_every_branch():
    # over F_16 on a plane spanned by e1, e2 of a dimension-4 form; b(e1, e2)
    # is the x1 x2 coefficient, 1 here
    d = finite_field(2, 4)
    field = Field(d)
    t = field.generator()
    e1 = (field.one, field.zero, field.zero, field.zero)
    e2 = (field.zero, field.one, field.zero, field.zero)
    one, zero = field.one, field.zero
    cases = [(t, zero), (zero, t + one), (zero, zero), (t, t ** 3)]
    for a11, a22 in cases:
        q = QuadraticForm(d, 4, {(0, 0): a11, (0, 1): one, (1, 1): a22,
                                 (2, 3): one})
        gram = associated_bilinear(q)
        u, w, g = _plane_block(q, e1, e2)
        assert _bil(gram, u, w, field) == one
        if a11.is_zero or a22.is_zero:
            # hyperbolic: both vectors isotropic, pairing 1; with q(e1) != 0
            # and q(e2) = 0 this is the branch that swaps e1 and e2
            assert g is None
            assert q.evaluate(u).is_zero and q.evaluate(w).is_zero
        else:
            assert q.evaluate(u) == one and q.evaluate(w) == g
    # the swap branch itself: u is the old w, and w the old u moved by q(e1) u
    u, w, g = _plane_block(QuadraticForm(d, 4, {(0, 0): t, (0, 1): one, (2, 3): one}),
                           e1, e2)
    assert (u, w, g) == (e2, (one, t, zero, zero), None)


def test_arf_normal_form_verified_random():
    rng = random.Random(5)
    field = Field(F4)
    elems = list(field.elements())
    for _ in range(15):
        while True:
            coeffs = {(i, j): rng.choice(elems)
                      for i in range(4) for j in range(i, 4)}
            q = QuadraticForm(F4, 4, coeffs)
            if is_nondegenerate(q):
                break
        res = arf_normal_form(q)
        assert q.transform(res.change_of_basis) == res.canonical_form
        assert res.canonical_form == canonical_char2_form(F4, 4, res.arf)


def test_arf_guards():
    with pytest.raises(WrongCharacteristic):
        arf_normal_form(form(F3, 2, {(0, 1): 1}))
    with pytest.raises(DegenerateForm):
        arf_normal_form(form(F2, 3, {(0, 1): 1, (2, 2): 1}))  # odd dim
    with pytest.raises(WrongCharacteristic):
        arf_invariant_class(0, 1, Field(F3))


def test_arf_classes_f2():
    field = Field(F2)
    assert arf_invariant_class(field.zero, field.zero, field)
    assert not arf_invariant_class(field.zero, field.one, field)


def test_arf_class_matches_artin_schreier_image():
    for m in range(1, 9):
        field = Field(F2 if m == 1 else finite_field(2, m))
        image = artin_schreier_image(field, max_size=256)
        elements = list(field.elements())
        shift = elements[-1]
        for a in elements:
            assert arf_invariant_class(a, field.zero, field) == (a in image)
            assert arf_invariant_class(a, shift, field) == (a - shift in image)


def _trace_f2m(e, m):
    """Tr(e) = e + e^2 + ... + e^(2^(m-1)) over F_{2^m}."""
    total = power = e
    for _ in range(m - 1):
        power = power * power
        total = total + power
    return total


def test_arf_class_past_the_enumeration_range():
    rng = random.Random(9)
    for m in (9, 40):
        field = Field(finite_field(2, m))
        # the image of c -> c^2 + c is exactly the kernel of the trace
        for _ in range(5):
            a, c = field.random_element(rng), field.random_element(rng)
            assert arf_invariant_class(a + c * c + c, a, field)
            assert arf_invariant_class(a, c, field) == _trace_f2m(a - c, m).is_zero
        assert arf_invariant_class(field.one, field.zero, field) == (m % 2 == 0)


def test_exhaustive_dim2_classification_f2():
    forms = list(enumerate_nondegenerate_forms(F2, 2))
    field = Field(F2)
    split = {True: [], False: []}
    for q in forms:
        invariant = arf_normal_form(q).arf
        split[invariant.is_zero].append(q)
    assert len(split[True]) > 0 and len(split[False]) > 0
    # brute-force equivalence agrees with the invariant on every pair
    for q1 in forms:
        for q2 in forms:
            same_class = arf_invariant_class(arf_normal_form(q1).arf,
                                             arf_normal_form(q2).arf, field)
            assert forms_equivalent_bruteforce(q1, q2) == same_class


def test_represents_zero():
    hyp = form(F2, 2, {(0, 1): 1})
    vec = represents_zero_exhaustive(hyp)
    assert vec is not None and hyp.evaluate(vec).is_zero

    aniso = form(F2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    assert represents_zero_exhaustive(aniso) is None

    with pytest.raises(FieldTooLarge):
        represents_zero_exhaustive(form(Q, 2, {(0, 1): 1}))


def test_extract_isotropic_char3():
    field = Field(F3)
    q = form(F3, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    cyc = fieldmatrix.mat_from_rows([
        [field.zero, field.zero, field.one],
        [field.one, field.zero, field.zero],
        [field.zero, field.one, field.zero]])
    vec = extract_isotropic_from_order_p(cyc, q)
    assert q.evaluate(vec).is_zero
    assert any(not x.is_zero for x in vec)


def test_extract_isotropic_char5():
    field = Field(F5)
    n = 5
    q = form(F5, n, {(i, i): 1 for i in range(n)})
    rows = [[field.one if j == (i + 1) % n else field.zero for j in range(n)]
            for i in range(n)]
    cyc = fieldmatrix.mat_from_rows(rows)
    vec = extract_isotropic_from_order_p(cyc, q)
    assert q.evaluate(vec).is_zero


def test_extract_isotropic_guards():
    field = Field(F3)
    q = form(F3, 2, {(0, 0): 1, (1, 1): 1})
    ident = fieldmatrix.identity(field, 2)
    with pytest.raises(NotOrderP):
        extract_isotropic_from_order_p(ident, q)
    shear = fieldmatrix.mat_from_rows([[field.one, field.one],
                                       [field.zero, field.one]])
    with pytest.raises(NotIsometry):
        extract_isotropic_from_order_p(shear, q)
    q0 = form(Q, 2, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(WrongCharacteristic):
        extract_isotropic_from_order_p(fieldmatrix.identity(Field(Q), 2), q0)


def test_involution_check_reflection():
    field = Field(Q)
    q = form(Q, 2, {(0, 0): 1, (1, 1): 1})
    refl = fieldmatrix.mat_from_rows([[field.one, field.zero],
                                      [field.zero, field(-1)]])
    report = involution_check(refl, q)
    assert report.scaling == field.one
    assert report.squares_to_identity
    assert report.projective_order == 2
    assert report.diagonalizable_over_base


def test_involution_check_rational_rotation_is_undecided():
    # 90-degree rotation preserves x^2 + y^2 but is not diagonalizable
    # over Q; lift order 4 is allowed and nothing is raised
    field = Field(Q)
    q = form(Q, 2, {(0, 0): 1, (1, 1): 1})
    rot = fieldmatrix.mat_from_rows([[field.zero, field(-1)],
                                     [field.one, field.zero]])
    report = involution_check(rot, q)
    assert report.projective_order == 2
    assert report.lift_order == 4
    assert report.diagonalizable_over_base is None


def test_involution_check_raises_over_cyclotomic():
    # over Q(zeta_4) the same rotation diagonalizes, so its survival
    # contradicts the asserted anisotropy (indeed x^2 + y^2 is isotropic)
    c4 = cyclotomic(4)
    field = Field(c4)
    q = form(c4, 2, {(0, 0): 1, (1, 1): 1})
    rot = fieldmatrix.mat_from_rows([[field.zero, field(-1)],
                                     [field.one, field.zero]])
    with pytest.raises(OrderExceedsBound):
        involution_check(rot, q)


def test_involution_check_rejects_nonsimilitude():
    field = Field(Q)
    q = form(Q, 2, {(0, 0): 1, (1, 1): 1})
    shear = fieldmatrix.mat_from_rows([[field.one, field.one],
                                       [field.zero, field.one]])
    with pytest.raises(NotIsometry):
        involution_check(shear, q)


def test_involution_check_similitude_scaling():
    field = Field(Q)
    q = form(Q, 2, {(0, 0): 1, (1, 1): 1})
    double = fieldmatrix.mat_from_rows([[field(2), field.zero],
                                        [field.zero, field(2)]])
    report = involution_check(double, q)
    assert report.scaling == field(4)
    assert report.projective_order == 1


def test_pfister_build_k2_and_k3():
    for k in (2, 3):
        data = pfister_build(k)
        assert data.n == 2 ** k
        assert data.form.transform(data.tau) == data.form.scale(
            data.top_coefficient)
        assert data.form.transform(data.sigma) == data.form
    # k = 1 still builds the form (descent needs it) but has no sign map
    with pytest.raises(KTooLarge):
        _ = pfister_build(1).sigma
    with pytest.raises(KTooLarge):
        pfister_build(6)
    # one verified build per k, shared by every Pfister routine
    assert pfister_build(3) is pfister_build(3)


def test_pfister_closure_k3():
    group = pfister_group_closure(3)
    assert group.order == 8
    assert group.nonabelian
    assert group.order_divides_bound
    assert set(group.projective_orders) == {1, 2, 4}
    # iota = (sigma tau)^2 is a nontrivial central involution
    i = group.iota_index
    assert i != 0 and group.table[i][i] == 0
    for j in range(group.order):
        assert group.table[i][j] == group.table[j][i]


def test_pfister_closure_k2_is_abelian():
    group = pfister_group_closure(2)
    assert group.order == 4
    assert not group.nonabelian


def test_pfister_refutations():
    rng = random.Random(0)
    for _ in range(20):
        candidate = random_candidate(3, rng)
        report = pfister_refute_point(3, candidate)
        assert not report.value.is_zero

    with pytest.raises(AllZeroCandidate):
        pfister_refute_point(3, (0,) * 8)


def test_pfister_run_counts_what_a_loop_over_the_seed_refutes():
    for k, trials, seed in ((2, 7, 3), (3, 12, 5)):
        form, rng, by_hand = pfister_build(k).form, random.Random(seed), 0
        for _ in range(trials):
            by_hand += not form.evaluate(random_candidate(k, rng)).is_zero
        group, refuted = pfister_run(k, trials, seed)
        assert refuted == by_hand == trials
        assert group == pfister_group_closure(k)
        assert group.to_json() == {
            "closure_order": str(group.order),
            "closure_nonabelian": group.nonabelian,
            "order_bound": str(8 ** (2 ** k - 1)),
            "order_divides_bound": True,
            "projective_orders": sorted({str(o) for o in group.projective_orders})}
    assert pfister_run(3, 0, 0)[1] == 0


def test_pfister_refutation_k1_parity():
    data = pfister_build(2)
    field = data.field
    a2 = field.vars()[1]
    report = pfister_refute_point(2, (a2, field.zero, field.one, field.zero))
    assert report.value == a2 * a2 + a2


def test_descent_step_keeps_leading_half():
    data = pfister_build(2)
    field = data.field
    a2 = field.vars()[1]
    # only the last-variable half carries the top power of a2
    which, leading = descent_step(2, (field.one, field.zero, a2, field.zero))
    assert which in (0, 1)
    assert any(not x.is_zero for x in leading)


def test_random_candidate_deterministic():
    a = random_candidate(3, random.Random(4))
    b = random_candidate(3, random.Random(4))
    assert a == b
    assert any(not Field(pfister_build(3).descriptor)(x).is_zero for x in a)


def test_form_json_roundtrip():
    q = form(Q, 3, {(0, 0): 2, (0, 2): -1, (1, 1): 7})
    assert QuadraticForm.from_json(q.to_json()) == q
    data = pfister_build(2)
    assert QuadraticForm.from_json(data.form.to_json()) == data.form


def test_pfister_closure_breadth_first_indices():
    # identity, sigma, tau, then products in breadth-first order
    k2, k3 = pfister_group_closure(2), pfister_group_closure(3)
    assert (k2.sigma_index, k2.tau_index, k2.iota_index) == (1, 2, 0)
    assert k2.projective_orders == (1, 2, 2, 2)
    assert (k3.sigma_index, k3.tau_index, k3.iota_index) == (1, 2, 7)
    assert k3.projective_orders == (1, 2, 2, 4, 4, 2, 2, 2)
    with pytest.raises(QuadFormError, match="closure exceeded the cap 5"):
        pfister_group_closure(3, cap=5)


def _first_isotropic_by_scan(g1, g2, field):
    """Oracle: the first nonzero zero of the block form among all q^4 vectors."""
    return next(c for c in itertools.product(field.elements(), repeat=4)
                if any(not x.is_zero for x in c)
                and _block_value(g1, g2, c, field).is_zero)


def test_first_isotropic_matches_scan():
    for descriptor in (F2, F4, finite_field(2, 3)):
        field = Field(descriptor)
        nonzero = [x for x in field.elements() if not x.is_zero]
        for g1, g2 in itertools.product(nonzero, repeat=2):
            assert (_first_isotropic(g1, g2, field)
                    == _first_isotropic_by_scan(g1, g2, field))
    field = Field(finite_field(2, 4))
    nonzero = [x for x in field.elements() if not x.is_zero]
    rng = random.Random(16)
    for _ in range(40):
        g1, g2 = rng.choice(nonzero), rng.choice(nonzero)
        assert (_first_isotropic(g1, g2, field)
                == _first_isotropic_by_scan(g1, g2, field))


def _artin_schreier_reduce_by_scan(gamma, field):
    """Oracle: the smallest gamma + c^2 + c over all q elements c in
    element order, and the first c reaching it."""
    best = None
    for c in field.elements():
        shifted = gamma + c * c + c
        if best is None or shifted.payload < best[0].payload:
            best = (shifted, c)
    return best


def _trace(x, m):
    total, y = x, x
    for _ in range(m - 1):
        y = y * y
        total = total + y
    return total


def test_artin_schreier_reduce_matches_scan():
    for descriptor in [F2] + [finite_field(2, m) for m in range(1, 7)]:
        field = Field(descriptor)
        for gamma in field.elements():
            assert (_artin_schreier_reduce(gamma, field)
                    == _artin_schreier_reduce_by_scan(gamma, field))
    field = Field(finite_field(2, 8))
    elements = list(field.elements())
    for gamma in random.Random(256).sample(elements, 30):
        assert (_artin_schreier_reduce(gamma, field)
                == _artin_schreier_reduce_by_scan(gamma, field))


def test_arf_normal_form_reduces_over_f512():
    # past the size the old reduction scanned: a split parameter reduces to
    # 0 and a non-split one to the first element of trace 1
    descriptor = finite_field(2, 9)
    field = Field(descriptor)
    elements = list(field.elements())
    first_odd = next(x for x in elements if _trace(x, 9) == field.one)
    t = field.generator()
    for a in (t ** 5 + t ** 7, t + t * t, t ** 100, t ** 3, field.one):
        want = field.zero if _trace(a, 9).is_zero else first_odd
        for dim in (2, 4):
            res = arf_normal_form(canonical_char2_form(descriptor, dim, a))
            assert res.arf == want
            assert (canonical_char2_form(descriptor, dim, a)
                    .transform(res.change_of_basis) == res.canonical_form)
    # the merged block's isotropic vector is still the first of the q^4
    # vectors: the first c4 with (0, 0, e1, c4) a zero, when there is one
    nonzero = elements[1:]
    rng = random.Random(512)
    for _ in range(12):
        g1, g2 = rng.choice(nonzero), rng.choice(nonzero)
        iso = _first_isotropic(g1, g2, field)
        assert _block_value(g1, g2, iso, field).is_zero
        e1 = nonzero[0]
        c4 = next((c for c in elements if _block_value(
            g1, g2, (field.zero, field.zero, e1, c), field).is_zero), None)
        if c4 is None:
            assert iso[:3] == (field.zero, e1, field.zero)
        else:
            assert iso == (field.zero, field.zero, e1, c4)


def test_random_candidate_matches_pfister_data_construction():
    # the payload construction against the element one: equal payloads and
    # the same rng draws, call by call
    for k in range(1, 6):
        for seed in range(4):
            rng_new, rng_old = random.Random(seed), random.Random(seed)
            for degree, terms in ((3, 2), (3, 2), (1, 4), (0, 3)):
                new = random_candidate(k, rng_new, degree, terms)
                old = random_candidate_by_elements(k, rng_old, degree, terms)
                assert [x.payload for x in new] == [x.payload for x in old]
                assert [repr(x) for x in new] == [repr(x) for x in old]
                assert rng_new.getstate() == rng_old.getstate()
    for k in (0, 6):
        with pytest.raises(KTooLarge):
            random_candidate(k, random.Random(0))
