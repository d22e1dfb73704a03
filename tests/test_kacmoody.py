import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from dyalg import linalg
from dyalg.bialgebra import validate_bialgebra
from dyalg.kacmoody import (KacMoodyBorel, build_kac_moody_borel, check_gcm,
                            symmetrizer, validate_bialgebra_windowed)

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
AFFINE = [[2, -2], [-2, 2]]
B2 = [[2, -1], [-2, 2]]
AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
TWISTED_A2 = [[2, -4], [-1, 2]]
HYPERBOLIC = [[2, -3], [-3, 2]]


def test_symmetrizers():
    assert symmetrizer(A1) == [1]
    assert symmetrizer(A2) == [1, 1]
    assert symmetrizer(AFFINE) == [1, 1]
    assert symmetrizer(B2) == [1, 2] or symmetrizer(B2) == [2, 1]


def test_non_symmetrizable_rejected():
    # no positive diagonal can symmetrize this 3x3 matrix
    bad = [[2, -1, 0], [-2, 2, -1], [0, -3, 2]]
    ok = [[2, -1, 0], [-2, 2, -1], [0, -2, 2]]
    symmetrizer(ok)
    bad_cycle = [[2, -1, -2], [-1, 2, -1], [-1, -1, 2]]
    with pytest.raises(ValueError):
        symmetrizer(bad_cycle)
    with pytest.raises(ValueError):
        symmetrizer([[2, -1], [0, 2]])


@pytest.mark.parametrize("cartan, symmetrizers", [
    pytest.param([[2, -1]], None, id="not-square"),
    pytest.param([[2, -1], [-1]], None, id="ragged"),
    pytest.param(5, None, id="not-a-matrix"),
    pytest.param([], None, id="empty"),
    pytest.param([[2.0]], None, id="float-entry"),
    pytest.param([[3]], [1], id="diagonal-3"),
    pytest.param([[2, 1], [1, 2]], [1, 1], id="positive-off-diagonal"),
    pytest.param([[2, -1], [0, 2]], [1, 1], id="one-sided-zero"),
    pytest.param(A2, [-1, -1], id="negative-symmetrizers"),
    pytest.param(A2, [0, 0], id="zero-symmetrizers"),
    pytest.param(A1, [1.5], id="float-symmetrizer"),
    pytest.param(A1, [1, 2], id="symmetrizer-too-many"),
    pytest.param(B2, [1, 2], id="not-symmetrizing"),
])
def test_malformed_gcm_rejected(cartan, symmetrizers):
    with pytest.raises(ValueError):
        check_gcm(cartan, symmetrizers)
    with pytest.raises(ValueError):
        KacMoodyBorel(cartan, 2, symmetrizers)
    with pytest.raises(ValueError):
        build_kac_moody_borel(cartan, 2, symmetrizers)


def test_given_symmetrizers_kept():
    assert check_gcm(B2, [4, 2]) == (B2, [4, 2])
    assert KacMoodyBorel(B2, 2, [4, 2]).sym == [4, 2]


def test_a1_reproduces_rank_one_borel():
    b = build_kac_moody_borel(A1, 2)
    assert b.dim == 3
    assert b.basis_names == ["h1", "cw1", "e[1]"]
    # derived part: [h, e] = 2e and delta(e) proportional to e wedge h
    h, cw, e = 0, 1, 2
    assert b.bracket[h][e][e] == 2
    assert b.cobracket[e][e][h] == Fraction(1, 2)
    assert b.cobracket[e][h][e] == -Fraction(1, 2)
    assert b.cobracket[h][e][e] == 0
    assert validate_bialgebra(b) == []


def test_a2_root_spaces_at_height_two():
    b = build_kac_moody_borel(A2, 2)
    assert b.dim == 7
    heights = sorted(sum(w) for w in b.weights)
    assert heights == [0, 0, 0, 0, 1, 1, 2]
    assert validate_bialgebra_windowed(b, 2) == []


def test_a2_serre_kills_height_three_beyond_adjacency():
    km = KacMoodyBorel(A2, 3)
    # in type A2 the only height-3 weight with a root vector would be
    # (2,1) or (1,2); the Serre relations kill both
    assert km.roots.dim((2, 1)) == 0
    assert km.roots.dim((1, 2)) == 0
    assert km.roots.dim((1, 1)) == 1


def test_affine_keeps_imaginary_directions():
    km = KacMoodyBorel(AFFINE, 3)
    assert km.roots.dim((1, 1)) == 1
    assert km.roots.dim((2, 1)) == 1  # ad(e1)^2 e2 survives (1 - a12 = 3)
    b = km.bialgebra()
    assert validate_bialgebra_windowed(b, 3) == []


def test_extended_cartan_form_nondegenerate():
    for cartan in (A1, A2, AFFINE):
        km = KacMoodyBorel(cartan, 1)
        form = km.cartan_form()
        assert linalg.rank(form) == len(form)


def test_plain_cartan_form_degenerate_for_affine():
    km = KacMoodyBorel(AFFINE, 1)
    l = km.rank
    block = [[Fraction(km.cartan[i][j], km.sym[j]) for j in range(l)]
             for i in range(l)]
    assert linalg.rank(block) < l  # the extension is what fixes this


def test_pairing_normalization():
    km = KacMoodyBorel(B2, 2)
    for i in range(2):
        w = tuple(1 if j == i else 0 for j in range(2))
        gram = km.root_pairing(w)
        assert gram[0][0] == Fraction(1, km.sym[i])


def test_guards():
    with pytest.raises(ValueError):
        build_kac_moody_borel([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                               [0, 0, 0, 2]], 2)
    with pytest.raises(ValueError):
        build_kac_moody_borel(A1, 9)


# SHA-256 of the sorted-key JSON of each assembled Borel, and the root
# pairing gram at every weight: any change to a bracket, cobracket or
# pairing entry shows up here.  Affine A2 has a 2-dimensional root space
# at (1, 1, 1), the hyperbolic [[2, -3], [-3, 2]] at (2, 3) and (3, 2).
PINNED_BORELS = [
    ("A1", A1, 4,
     "3a1826f2784398053320107000d768dc949f6248726e129d8c2120f8e612a957",
     {(1,): [["1"]]}),
    ("A2", A2, 3,
     "7bf680b683d66c6f740fcebd6ad463142103f458170959199a920418198dd6b5",
     {(0, 1): [["1"]], (1, 0): [["1"]], (1, 1): [["-1"]]}),
    ("B2", B2, 4,
     "cc9a9721b7dd9d98d61209dc011bbaed5ae6374d05c60f20b63b81c547c35d26",
     {(0, 1): [["1"]], (1, 0): [["1/2"]], (1, 1): [["-1"]],
      (1, 2): [["2"]]}),
    ("G2", [[2, -1], [-3, 2]], 4,
     "3768711f972e9d454851c0200a477e0f0c702b61fee0e7e3440c07ff73f1b4bd",
     {(0, 1): [["1"]], (1, 0): [["1/3"]], (1, 1): [["-1"]],
      (1, 2): [["4"]], (1, 3): [["-12"]]}),
    ("affine A1", AFFINE, 4,
     "3d5b019b56aa89f797a92f1172be4d421e4ac1930104812f66bf880db3ddbd93",
     {(0, 1): [["1"]], (1, 0): [["1"]], (1, 1): [["-2"]], (1, 2): [["4"]],
      (2, 1): [["4"]], (2, 2): [["-8"]]}),
    ("affine A2", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], 3,
     "91ed77bb2a8e71a57ce23c900700f14a1fe4799bebbe91f7499acca18c64d4d4",
     {(0, 0, 1): [["1"]], (0, 1, 0): [["1"]], (1, 0, 0): [["1"]],
      (0, 1, 1): [["-1"]], (1, 0, 1): [["-1"]], (1, 1, 0): [["-1"]],
      (1, 1, 1): [["2", "1"], ["1", "2"]]}),
    ("G2", [[2, -1], [-3, 2]], 5,
     "fbaa3dd7225a3ad7f07c4b751fcfdc24e1689a2a1f3c995030a03744c39f6fe1",
     {(0, 1): [["1"]], (1, 0): [["1/3"]], (1, 1): [["-1"]],
      (1, 2): [["4"]], (1, 3): [["-12"]], (2, 3): [["12"]]}),
    ("affine A1", AFFINE, 6,
     "b255c486a66dddadc6fc7971d546eed70d155916799913e88e4fb889d6817857",
     {(0, 1): [["1"]], (1, 0): [["1"]], (1, 1): [["-2"]], (1, 2): [["4"]],
      (2, 1): [["4"]], (2, 2): [["-8"]], (2, 3): [["16"]], (3, 2): [["16"]],
      (3, 3): [["-32"]]}),
    ("affine A2", AFFINE_A2, 5,
     "3fd16422833a7c72b142ebd36bcb1b524f37d76a84acab9a5d31f66d60a74ce0",
     {(0, 0, 1): [["1"]], (0, 1, 0): [["1"]], (1, 0, 0): [["1"]],
      (0, 1, 1): [["-1"]], (1, 0, 1): [["-1"]], (1, 1, 0): [["-1"]],
      (1, 1, 1): [["2", "1"], ["1", "2"]], (1, 1, 2): [["-4"]],
      (1, 2, 1): [["-1"]], (2, 1, 1): [["-1"]], (1, 2, 2): [["1"]],
      (2, 1, 2): [["1"]], (2, 2, 1): [["1"]]}),
    ("twisted A2^(2)", TWISTED_A2, 6,
     "8106c606e42b031b5f1c097b125c0fe20a8772f31a1c32d204bc5bcb2eacdbf5",
     {(0, 1): [["1/4"]], (1, 0): [["1"]], (1, 1): [["-1"]], (2, 1): [["6"]],
      (3, 1): [["-36"]], (3, 2): [["36"]], (4, 1): [["144"]],
      (4, 2): [["-288"]]}),
    ("hyperbolic", HYPERBOLIC, 5,
     "4154c6561f5978aed6a994a4a587815e9e7076666d017184d990e29dd9c245e4",
     {(0, 1): [["1"]], (1, 0): [["1"]], (1, 1): [["-3"]], (1, 2): [["12"]],
      (2, 1): [["12"]], (1, 3): [["-36"]], (3, 1): [["-36"]],
      (2, 2): [["-48"]], (2, 3): [["288", "144"], ["144", "252"]],
      (3, 2): [["252", "144"], ["144", "288"]]}),
]


def test_borel_tables_pinned():
    for name, cartan, cap, digest, grams in PINNED_BORELS:
        km = KacMoodyBorel(cartan, cap)
        text = json.dumps(km.bialgebra().to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert {w: [[str(x) for x in row] for row in km.root_pairing(w)]
                for w in km.weights_list} == grams, name


def peterson_multiplicities(d, cartan, cap):
    """Root multiplicities up to height ``cap`` by Peterson's recursion
    (Kac, Exercise 11.11), from the symmetric form (a_i | a_j) = d_i a_ij
    alone:

        (b | b - 2 rho) c_b = sum over b' + b'' = b of (b' | b'') c_b' c_b''

    with c_b = sum over k >= 1 of mult(b / k) / k and (rho | a_i) = d_i.
    Simple roots have multiplicity 1; any other b with (b | b - 2 rho) = 0
    has multiplicity 0, though c_b still collects mult(b / k) / k, k >= 2."""
    l = len(cartan)

    def form(x, y):
        return sum(x[i] * d[i] * cartan[i][j] * y[j]
                   for i in range(l) for j in range(l))

    weights = sorted((w for w in itertools.product(range(cap + 1), repeat=l)
                      if 0 < sum(w) <= cap), key=sum)
    mult, c = {}, {}
    for b in weights:
        multiples = sum(Fraction(mult[tuple(x // k for x in b)], k)
                        for k in range(2, max(b) + 1)
                        if all(x % k == 0 for x in b))
        rhs = sum(form(p, q) * c[p] * c[q] for p in c
                  for q in [tuple(x - y for x, y in zip(b, p))] if q in c)
        lhs = form(b, b) - 2 * sum(x * di for x, di in zip(b, d))
        if sum(b) == 1:
            mult[b] = 1
        elif lhs == 0:
            assert rhs == 0, b
            mult[b] = 0
        else:
            mult[b] = Fraction(rhs, lhs) - multiples
            assert mult[b].denominator == 1 and mult[b] >= 0, b
        c[b] = mult[b] + multiples
    return mult


def test_peterson_oracle_on_affine_a2():
    mult = peterson_multiplicities([1, 1, 1], AFFINE_A2, 6)
    assert mult[(1, 1, 1)] == 2      # the imaginary root delta
    assert mult[(0, 2, 2)] == 0      # twice a real root
    assert mult[(2, 2, 2)] == 2      # 2 delta


@pytest.mark.parametrize("d, cartan, cap", [
    pytest.param([1, 1, 1], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3,
                 id="A3"),
    pytest.param([2, 1], B2, 4, id="B2"),
    pytest.param([3, 1], [[2, -1], [-3, 2]], 5, id="G2"),
    pytest.param([1, 1], AFFINE, 6, id="affine-A1"),
    pytest.param([1, 1, 1], AFFINE_A2, 5, id="affine-A2"),
    pytest.param([1, 4], TWISTED_A2, 6, id="twisted-A2"),
    pytest.param([1, 1], HYPERBOLIC, 5, id="hyperbolic"),
])
def test_root_multiplicities_match_peterson(d, cartan, cap):
    mult = peterson_multiplicities(d, cartan, cap)
    roots = KacMoodyBorel(cartan, cap).roots
    assert {b: roots.dim(b) for b in mult} == mult
