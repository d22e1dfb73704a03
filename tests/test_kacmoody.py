import hashlib
import json
from fractions import Fraction

import pytest

from dyalg import linalg
from dyalg.bialgebra import validate_bialgebra
from dyalg.kacmoody import (KacMoodyBorel, build_kac_moody_borel, symmetrizer,
                            validate_bialgebra_windowed)

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
AFFINE = [[2, -2], [-2, 2]]
B2 = [[2, -1], [-2, 2]]


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
# at (1, 1, 1).
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
]


def test_borel_tables_pinned():
    for name, cartan, cap, digest, grams in PINNED_BORELS:
        km = KacMoodyBorel(cartan, cap)
        text = json.dumps(km.bialgebra().to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
        assert {w: [[str(x) for x in row] for row in km.root_pairing(w)]
                for w in km.weights_list} == grams, name
