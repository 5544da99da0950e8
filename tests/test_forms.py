import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistorflow.coeff import (Coeff, ONE, ZERO, add_into, close, jet_cutoff, jet_symbol,
                               mul_into)
from twistorflow.canonical import MetricParams, canonical_setup
from twistorflow.connections import _decompose, coframe_expansion
from twistorflow.forms import (Basis, DimensionMismatch, FormMatrix, MissingRule,
                               OneForm, TwoForm, d2_residual, exterior_derivative, mat_wedge,
                               slot_image, wedge)
from twistorflow.liealg import build_sp_basis, make_rules, structure_constants


def basis_rules(n):
    basis = Basis(n)
    rules = make_rules(structure_constants(build_sp_basis(n)), basis)
    return basis, rules


def one(basis, label, c=1):
    return OneForm.basis(basis.index[label], Coeff.rational(c))


def canonical_expansion(n):
    """The basis and the expansion of the canonical coframe {lambda alpha_1,
    lambda alpha_3, X^0..X^3} (slots 0, 1, then the X columns)."""
    basis, _, coframe = canonical_setup(MetricParams(n))
    return basis, coframe_expansion(coframe, basis.dim())


def test_basis_cardinality():
    for n in (2, 3, 4):
        b = Basis(n)
        assert b.dim() == (n + 1) * (2 * n + 3)
        assert b.labels[0] == ("A", 1)
        # declaration order is the total order used for stored two-form keys
        assert b.index[("A", 1)] < b.index[("A", 3)] < b.index[("X", 0, 1)]
    with pytest.raises(ValueError):
        Basis(1)


def test_wedge_antisymmetry_and_self_zero():
    b = Basis(2)
    a1 = one(b, ("A", 1))
    a3 = one(b, ("A", 3))
    assert wedge(a1, a1).is_zero()
    assert (wedge(a1, a3) + wedge(a3, a1)).is_zero()


def test_wedge_sign_convention_on_dual_pair():
    # alpha_1 = lambda^-1 e^0 and alpha_3 = lambda^-1 e^1, with the inverse
    # computed by the expansion: (alpha_3 ^ alpha_1)(e_1, e_0) = lambda^-2
    b, expansion = canonical_expansion(2)
    assert expansion[b.a(1)] == OneForm({0: Coeff.lam_power(-1)})
    w = wedge(one(b, ("A", 3)), one(b, ("A", 1)))
    assert slot_image(w, expansion).coeffs == {(0, 1): Coeff.lam_power(-2, -1)}
    # a form the coframe does not span pairs to zero
    assert expansion[b.a(2)].is_zero()
    assert slot_image(wedge(one(b, ("A", 2)), one(b, ("A", 1))), expansion).is_zero()


def test_wedge_bilinearity_random():
    rng = random.Random(11)
    b = Basis(2)
    idxs = list(range(b.dim()))

    def rand_form():
        return OneForm.build([(rng.choice(idxs), Coeff.rational(rng.randint(-3, 3)))
                              for _ in range(rng.randint(1, 5))])

    for _ in range(40):
        x, y, z = rand_form(), rand_form(), rand_form()
        assert wedge(x + y, z) == wedge(x, z) + wedge(y, z)
        assert (wedge(x, y) + wedge(y, x)).is_zero()


def test_stored_keys_are_ordered():
    b = Basis(2)
    w = wedge(one(b, ("X", 1, 1)), one(b, ("A", 2)))
    for (i, j) in w.coeffs:
        assert i < j


def test_exterior_derivative_alpha2():
    # d alpha_2 = 2 a3^a1 + 2(tX^2^X^0 + tX^3^X^1), n = 2
    n = 2
    b, rules = basis_rules(n)
    d = exterior_derivative(one(b, ("A", 2)), rules)
    items = [(b.a(3), b.a(1), Coeff.rational(2))]
    for a in range(1, n + 1):
        items.append((b.x(2, a), b.x(0, a), Coeff.rational(2)))
        items.append((b.x(3, a), b.x(1, a), Coeff.rational(2)))
    assert d == TwoForm.build(items)


def test_exterior_derivative_zero_form():
    _, rules = basis_rules(2)
    assert exterior_derivative(OneForm({}), rules).is_zero()


def test_jet_leibniz_hand_expansion():
    # d(A10 X^0_1) for the rule d A10 = X^1_1: hand expansion gives
    # X^1_1 ^ X^0_1 plus A10 * (Maurer-Cartan d X^0_1)
    b, rules = basis_rules(2)
    jet = jet_symbol("LEIB", 1)
    rules = rules.with_jets({jet: OneForm.basis(b.x(1, 1), ONE)})
    form = OneForm.basis(b.x(0, 1), Coeff.symbol(jet))
    d = exterior_derivative(form, rules)
    hand = wedge(OneForm.basis(b.x(1, 1), ONE), OneForm.basis(b.x(0, 1), ONE))
    hand = hand + rules.d_basis[b.x(0, 1)].scale(Coeff.symbol(jet))
    assert d == hand
    key = (b.x(0, 1), b.x(1, 1))
    assert d.coeffs[key].grade_part(0) == Coeff.rational(-1)  # = +X^1^X^0


def test_missing_rule():
    b, rules = basis_rules(2)
    orphan = jet_symbol("ORPHAN", 1)
    form = OneForm.basis(b.x(0, 1), Coeff.symbol(orphan))
    with pytest.raises(MissingRule):
        exterior_derivative(form, rules)


def test_leibniz_random_products():
    # d(f w) = df ^ w + f dw for grade-1 f and basis w, up to truncation
    rng = random.Random(23)
    b, rules = basis_rules(2)
    jets = []
    for k in range(3):
        s = jet_symbol(f"LR{k}", 1)
        rule = OneForm.build([(rng.randrange(b.dim()), Coeff.rational(rng.randint(-2, 2)))
                              for _ in range(2)])
        jets.append((s, rule))
    rules = rules.with_jets(dict(jets))
    for s, rule in jets:
        for _ in range(10):
            idx = rng.randrange(b.dim())
            w = OneForm.basis(idx, ONE)
            f = Coeff.symbol(s)
            got = exterior_derivative(w.scale(f), rules)
            want = wedge(rule, w) + rules.d_basis[idx].scale(f)
            assert got == want


def test_d_squared_zero():
    for n in (2, 3):
        b, rules = basis_rules(n)
        for idx in range(b.dim()):
            assert d2_residual(idx, rules) == {}


def test_d_squared_fails_for_tampered_constants():
    n = 2
    b = Basis(n)
    sc = structure_constants(build_sp_basis(n))
    bad = sc.tampered(0, 1, 2)
    rules = make_rules(bad, b)
    assert any(d2_residual(idx, rules) for idx in range(b.dim()))


def _mc_matrix(n):
    """The full matrix of invariant forms in the displayed block pattern."""
    b = Basis(n)
    one_ = ONE
    dim = 4 + 4 * n
    M = FormMatrix.zero(dim)

    def alpha(i, s):
        return OneForm.basis(b.a(i), Coeff.rational(s))

    corner = {(0, 1): (1, 1), (0, 2): (3, -1), (0, 3): (2, 1),
              (1, 2): (2, 1), (1, 3): (3, 1), (2, 3): (1, 1)}
    for (i, j), (k, s) in corner.items():
        M.entries[i][j] = alpha(k, s)
        M.entries[j][i] = alpha(k, -s)
    xcol = [[(0, 1), (1, -1), (3, 1), (2, -1)],
            [(1, 1), (0, 1), (2, -1), (3, -1)],
            [(3, -1), (2, 1), (0, 1), (1, -1)],
            [(2, 1), (3, 1), (1, 1), (0, 1)]]
    for blk in range(4):
        for col in range(4):
            xi, s = xcol[blk][col]
            for a in range(1, n + 1):
                M.entries[4 + blk * n + a - 1][col] = \
                    OneForm.basis(b.x(xi, a), Coeff.rational(s))
                M.entries[col][4 + blk * n + a - 1] = \
                    OneForm.basis(b.x(xi, a), Coeff.rational(-s))
    gpat = [[(0, 1), (1, -1), (3, 1), (2, -1)],
            [(1, 1), (0, 1), (2, -1), (3, -1)],
            [(3, -1), (2, 1), (0, 1), (1, -1)],
            [(2, 1), (3, 1), (1, 1), (0, 1)]]
    for bi in range(4):
        for bj in range(4):
            m, s = gpat[bi][bj]
            for a in range(1, n + 1):
                for c in range(1, n + 1):
                    gi, gs = b.g(m, a, c)
                    if gi >= 0:
                        M.entries[4 + bi * n + a - 1][4 + bj * n + c - 1] = \
                            OneForm.basis(gi, Coeff.rational(s * gs))
    return b, M


def test_maurer_cartan_closure_matrix():
    for n in (2, 3):
        b, M = _mc_matrix(n)
        assert M.is_skew()
        rules = make_rules(structure_constants(build_sp_basis(n)), b)
        resid = M.d(rules) + mat_wedge(M, M)
        assert all(resid.entries[i][j].is_zero()
                   for i in range(M.dim) for j in range(M.dim))


def test_mat_wedge_zero_and_dimension():
    b, M = _mc_matrix(2)
    Z = FormMatrix.zero(M.dim)
    prod = mat_wedge(Z, M)
    assert all(prod.entries[i][j].is_zero() for i in range(M.dim) for j in range(M.dim))
    with pytest.raises(DimensionMismatch):
        mat_wedge(M, FormMatrix.zero(M.dim + 1))


def test_gamma0_block_of_square():
    # the Gamma~_0 slot of the Maurer-Cartan square carries
    # -X^0^tX^0 - ... - X^3^tX^3 - (Gamma~ quadratics), matching d Gamma~_0
    n = 2
    b, M = _mc_matrix(n)
    sq = mat_wedge(M, M)
    rules = make_rules(structure_constants(build_sp_basis(n)), b)
    for a in range(n):
        for c in range(n):
            dg = exterior_derivative(M.entries[4 + a][4 + c], rules)
            assert (dg + sq.entries[4 + a][4 + c]).is_zero()


def test_slot_image_scaled_fiber():
    b, expansion = canonical_expansion(2)
    w = wedge(one(b, ("A", 1)), one(b, ("A", 3))).scale(Coeff.rational(4))
    assert slot_image(w, expansion).coeffs == {(0, 1): Coeff.lam_power(-2, 4)}


def test_slot_image_base_direction_sum():
    # sum over the 4n base directions of lambda^3 X^k ^ alpha_1 paired against
    # the scaled fiber dual gives 4 n lambda^2
    for n in (2, 3):
        b, expansion = canonical_expansion(n)
        lam3 = Coeff.lam_power(3)
        total = Coeff.rational(0)
        for k in range(4):
            for a in range(1, n + 1):
                (L,) = expansion[b.x(k, a)].coeffs
                w = wedge(OneForm.basis(b.x(k, a), lam3), OneForm.basis(b.a(1), ONE))
                # w(e_L, e_0) is minus the stored (0, L) component
                total = total - slot_image(w, expansion).coeffs[(0, L)]
        assert total == Coeff.lam_power(2, 4 * n)


def test_d_squared_zero_with_symbolic_scale():
    # the base-rescaled rules (symbolic scalar curvature ratio on the X^X
    # parts of the alpha and Gamma~ differentials) still close exactly
    from twistorflow.coeff import jet_symbol
    b = Basis(2)
    sig = Coeff.symbol(jet_symbol("SRATIO", 0))
    rules = make_rules(structure_constants(build_sp_basis(2)), b, s_ratio=sig)
    for idx in range(b.dim()):
        assert d2_residual(idx, rules) == {}


# one random Coeff: up to three terms lambda^k * value * (up to two symbols),
# small values so that sums often cancel
HA, HB, HP = jet_symbol("hA", 1), jet_symbol("hB", 1), jet_symbol("hP", 0)
_coeff_spec = st.lists(st.tuples(st.integers(-1, 1),
                                 st.lists(st.sampled_from([HA, HB, HP]), max_size=2),
                                 st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 2)])),
                       max_size=3)


def _make_coeff(spec) -> Coeff:
    c = ZERO
    for k, syms, v in spec:
        t = Coeff.lam_power(k, v)
        for sym in syms:
            t = t * Coeff.symbol(sym)
        c = c + t
    return c


def _ring_form(c: Coeff) -> bool:
    """Every value of c is a nonzero int or a non-integral Fraction."""
    return all(v and (type(v) is int or (type(v) is Fraction and v.denominator != 1))
               for v in c.terms.values())


def _no_zero(mapping) -> bool:
    return all(not c.is_zero() and _ring_form(c) for c in mapping.values())


@settings(max_examples=60, deadline=None)
@given(cutoff=st.sampled_from([2, 3]),
       raw=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _coeff_spec), max_size=10),
       n_mirrored=st.integers(0, 10), rnd=st.randoms(use_true_random=False))
def test_sparse_sums_never_store_a_zero(cutoff, raw, n_mirrored, rnd):
    with jet_cutoff(cutoff):
        items = [(i, j, _make_coeff(spec)) for i, j, spec in raw]
        # (j, i, c) is -(i, j, c): a mirrored prefix cancels through the swap
        items += [(j, i, c) for i, j, c in items[:n_mirrored]]
        built = TwoForm.build(items)

        want: dict = {}
        for i, j, c in items:
            if i != j:
                key, c = ((i, j), c) if i < j else ((j, i), -c)
                want[key] = want.get(key, ZERO) + c
        assert built.coeffs == {k: c for k, c in want.items() if not c.is_zero()}
        assert _no_zero(built.coeffs) and all(i < j for i, j in built.coeffs)

        shuffled = list(items)
        rnd.shuffle(shuffled)
        total = TwoForm({})
        for i, j, c in shuffled:
            total = total + TwoForm.build([(i, j, c)])
        assert total == built and _no_zero(total.coeffs)

        a = OneForm.build((i, c) for i, _, c in items)
        b = OneForm.build((j, c) for _, j, c in shuffled)
        for f in (a, b, a + b, a - b, a.scale(a.coeffs.get(0, ONE))):
            assert _no_zero(f.coeffs)
        assert (a - a).coeffs == {}
        assert wedge(a, a).is_zero() and wedge(b, b).is_zero()
        assert _no_zero(wedge(a, b).coeffs)

        M = FormMatrix(2, [[built, TwoForm({})], [total - built, TwoForm({})]])
        assert M.is_zero() == all(e.is_zero() for row in M.entries for e in row)
        assert M.is_zero() == built.is_zero()

        # the ambient forms 0..2 expand over three coframe slots; 3, 4 are
        # extras, with empty expansions
        cs = [c for _, _, c in items if not c.is_zero()] + [ONE]
        expansion = [OneForm({K: cs[(i + K) % len(cs)] for K in range(3)}) for i in range(3)]
        C, Mx, E = _decompose(built, expansion + [OneForm(), OneForm()])
        assert _no_zero(C) and _no_zero(Mx) and _no_zero(E)
        assert all(K < L for K, L in C)

        # the ring's kernel: products and sums accumulated into one raw term
        # map and closed once equal the fold of Coeff.__mul__ and __add__; the
        # ops followed by their negatives cancel exactly
        ops = [(rnd.choice(cs), rnd.choice(cs + [None]), rnd.choice((1, -1))) for _ in cs]
        ops += [(x, y, -s) for x, y, s in ops[:n_mirrored]]
        raw: dict = {}
        want = ZERO
        for x, y, s in ops:
            term = x if y is None else x * y
            want = want + (term if s == 1 else -term)
            if y is None:
                add_into(raw, x.terms, s)
            else:
                mul_into(raw, x.terms, y.terms, s)
        got = close(raw)
        assert got == want and _ring_form(got)
        for x, y, s in ops:
            if y is None:
                add_into(raw, x.terms, -s)
            else:
                mul_into(raw, x.terms, y.terms, -s)
        assert close(raw).terms == {}


@settings(max_examples=80, deadline=None)
@given(cutoff=st.sampled_from([2, 3]),
       raw=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), _coeff_spec), max_size=8),
       rows=st.lists(st.dictionaries(st.integers(0, 3), _coeff_spec, max_size=3),
                     min_size=6, max_size=6))
def test_slot_image_equals_pairing_oracle(cutoff, raw, rows):
    # ambient forms 0..5 over four slots, some of them empty (not spanned)
    with jet_cutoff(cutoff):
        w = TwoForm.build((i, j, _make_coeff(spec)) for i, j, spec in raw)
        expansion = [OneForm.build((K, _make_coeff(spec)) for K, spec in row.items())
                     for row in rows]
        image = slot_image(w, expansion).coeffs
        assert _no_zero(image)
        assert all(0 <= L < M < 4 for L, M in image)
        for L in range(4):
            for M in range(L + 1, 4):
                # w(e_L, e_M) = sum c (a_i^L a_j^M - a_i^M a_j^L)
                want = ZERO
                for (i, j), c in w.coeffs.items():
                    a, b = expansion[i].coeffs, expansion[j].coeffs
                    want = want + c * (a.get(L, ZERO) * b.get(M, ZERO)
                                       - a.get(M, ZERO) * b.get(L, ZERO))
                assert image.get((L, M), ZERO) == want


@settings(max_examples=60, deadline=None)
@given(cutoff=st.sampled_from([2, 3]),
       raw_a=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _coeff_spec), max_size=6),
       raw_b=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _coeff_spec), max_size=6),
       scalar=_coeff_spec, grade=st.integers(0, 2))
def test_one_and_two_forms_keep_their_algebra(cutoff, raw_a, raw_b, scalar, grade):
    with jet_cutoff(cutoff):
        c = _make_coeff(scalar)
        forms = []
        for raw in (raw_a, raw_b):
            items = [(i, j, _make_coeff(spec)) for i, j, spec in raw]
            forms.append((OneForm.build((i, x) for i, _, x in items), TwoForm.build(items)))
        for a, b in zip(*forms):
            kind = type(a)
            assert a + (-a) == kind({}) and (a - a).is_zero()
            assert a - b == a + (-b)
            assert (a + b).scale(c) == a.scale(c) + b.scale(c)
            assert (a + b).grade_part(grade) == a.grade_part(grade) + b.grade_part(grade)
            for f in (a + b, -a, a - b, a.scale(c), a.grade_part(grade)):
                assert type(f) is kind and _no_zero(f.coeffs)
    assert OneForm({}) != TwoForm({}) and TwoForm({}) != OneForm({})
    assert OneForm({}).__eq__(TwoForm({})) is NotImplemented
