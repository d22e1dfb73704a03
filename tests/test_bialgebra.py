import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dyalg.algebra import (AlgebraElement, alpha_map, beta_map,
                           enumerate_basis, face_map, kappa, r_matrix)
from dyalg.bialgebra import (DYModuleData, LieBialgebraData, abelian_bialgebra,
                             adjoint_module, borel_sl2, cartan_of_borel_sl2,
                             dense_of_sparse, drinfeld_double, evaluate,
                             evaluate_slices, eye, kron, madd, matmul,
                             mscale, restrict_module, tensor_module,
                             trivial_module, validate_bialgebra,
                             validate_dy_module, zeros)
from dyalg.kacmoody import build_kac_moody_borel
from dyalg.monoids import SPLIT, TRIVIAL, RootCone
from dyalg.rewrite import slices_of_key
from dyalg.terms import random_term, straighten


def test_borel_valid():
    assert validate_bialgebra(borel_sl2()) == []
    assert validate_bialgebra(abelian_bialgebra(3)) == []


def test_evaluate_input_checks():
    with pytest.raises(ValueError, match="^slot count mismatch"):
        evaluate(kappa(1, 1), [adjoint_module(borel_sl2())] * 2)
    with pytest.raises(ValueError, match="^a 0-slot element acts on no "
                                         "module"):
        evaluate(AlgebraElement.unit(0), [])
    with pytest.raises(ValueError, match="^decorated element needs a "
                                         "weight-graded bialgebra"):
        evaluate(kappa(1, 1, SPLIT, decor=0),
                 [adjoint_module(abelian_bialgebra(2))])


@pytest.mark.parametrize("weights, message", [
    (["x", 1], "weight 0 must be"), ([0, -1], "weight 1 must be"),
    ([True, 0], "weight 0 must be"), ([(0,), ("x",)], "weight 1 entry 0"),
    ([(0, 1), (0, [1])], "weight 1 entry 1")])
def test_malformed_weights_rejected(weights, message):
    b = borel_sl2()
    with pytest.raises(ValueError, match=f"^{message}"):
        LieBialgebraData(2, b.bracket, b.cobracket, weights)


def test_seeded_cobracket_failure_named():
    b = borel_sl2()
    bad = LieBialgebraData(
        2, b.bracket,
        [[[0, 0], [0, 0]], [[0, 1], [1, 0]]])  # non-antisymmetric delta(e)
    assert validate_bialgebra(bad) == [
        "cobracket antisymmetry fails at generator 1",
        "co-Jacobi fails at generator 1",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)"]


def test_seeded_jacobi_failure_named():
    # [x1,x2] = x3, [x1,x3] = x1, [x2,x3] = 0: the Jacobiator of
    # (x1, x2, x3) is -x3; triples with a repeated index always pass
    bracket = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, vec in ((0, 1, [0, 0, 1]), (0, 2, [1, 0, 0])):
        bracket[i][j] = vec
        bracket[j][i] = [-c for c in vec]
    zero = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    report = validate_bialgebra(LieBialgebraData(3, bracket, zero))
    assert report == [f"Jacobi fails at ({i},{j},{k})"
                      for i, j, k in itertools.permutations(range(3))]


def double_pairing(dim_half: int):
    """The canonical symmetric form on the double in the basis of
    drinfeld_double: the pairing of each basis element with its dual."""
    d2 = 2 * dim_half
    form = [[Fraction(0)] * d2 for _ in range(d2)]
    for i in range(dim_half):
        form[i][dim_half + i] = Fraction(1)
        form[dim_half + i][i] = Fraction(1)
    return form


def test_double_structure():
    b = borel_sl2()
    g = drinfeld_double(b)
    assert g.dim == 4
    assert validate_bialgebra(g) == []
    # invariance of the canonical form on all basis triples
    form = double_pairing(b.dim)
    for i, j, k in itertools.product(range(4), repeat=3):
        lhs = sum(g.bracket[i][j][m] * form[m][k] for m in range(4))
        rhs = sum(form[i][m] * g.bracket[j][k][m] for m in range(4))
        assert lhs == rhs
    # isotropy
    for i, j in itertools.product(range(2), repeat=2):
        assert form[i][j] == 0
        assert form[2 + i][2 + j] == 0


def test_double_of_abelian():
    g = drinfeld_double(abelian_bialgebra(1))
    assert g.dim == 2
    assert all(not c for row in g.bracket for vec in row for c in vec)


def test_module_fleet_valid():
    b = borel_sl2()
    adj = adjoint_module(b)
    assert validate_dy_module(b, adj) == []
    assert validate_dy_module(b, trivial_module(b)) == []
    assert validate_dy_module(b, tensor_module(adj, adj)) == []
    a1 = abelian_bialgebra(1)
    assert validate_dy_module(a1, adjoint_module(a1)) == []


def test_seeded_module_failure():
    b = borel_sl2()
    adj = adjoint_module(b)
    bad = DYModuleData(b, [madd(adj.actions[0], eye(4)), adj.actions[1]],
                       adj.coactions)
    assert validate_dy_module(b, bad) == [
        "action-coaction compatibility fails at (1,1)"]
    short = DYModuleData(b, adj.actions[:1], adj.coactions)
    assert validate_dy_module(b, short) == [
        "tensor count does not match bialgebra dimension"]


def _perturbed(tensors, seed):
    """A copy of a list of d x d matrices (or bracket planes) with one
    seeded entry shifted by a seeded non-zero rational."""
    rng = random.Random(seed)
    out = [[list(row) for row in m] for m in tensors]
    i = rng.randrange(len(out))
    j, k = rng.randrange(len(out[i])), rng.randrange(len(out[i]))
    out[i][j][k] += Fraction(rng.choice((-2, -1, 1, 2)),
                             rng.choice((1, 2, 3)))
    return out


# The reports of the dense Fraction validators on these perturbations,
# recorded before the validators moved onto the sparse integer tables.
PINNED_REPORTS = {
    ("borel", "bracket", 0): [
        "bracket antisymmetry fails at (1,1,0)",
        "Jacobi fails at (1,1,1)",
    ],
    ("borel", "cobracket", 0): [
        "cobracket antisymmetry fails at generator 1",
        "co-Jacobi fails at generator 1",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
    ],
    ("double", "bracket", 0): [
        "bracket antisymmetry fails at (3,3,0)",
        "Jacobi fails at (1,3,3)",
        "Jacobi fails at (3,1,3)",
        "Jacobi fails at (3,3,1)",
        "Jacobi fails at (3,3,3)",
    ],
    ("double", "cobracket", 0): [
        "cobracket antisymmetry fails at generator 3",
        "co-Jacobi fails at generator 3",
        "cocycle condition fails at (0,3)",
        "cocycle condition fails at (1,3)",
        "cocycle condition fails at (2,3)",
        "cocycle condition fails at (3,0)",
        "cocycle condition fails at (3,1)",
        "cocycle condition fails at (3,2)",
    ],
    ("adjoint", "actions", 0): [
        "action axiom fails at (0,1)",
        "action axiom fails at (1,0)",
        "action-coaction compatibility fails at (1,0)",
        "action-coaction compatibility fails at (1,1)",
    ],
    ("adjoint", "coactions", 0): [
        "action-coaction compatibility fails at (1,1)",
    ],
    ("borel", "bracket", 1): [
        "bracket antisymmetry fails at (0,0,1)",
        "Jacobi fails at (0,0,0)",
        "cocycle condition fails at (0,0)",
    ],
    ("borel", "cobracket", 1): [
        "cobracket antisymmetry fails at generator 0",
        "co-Jacobi fails at generator 0",
        "co-Jacobi fails at generator 1",
    ],
    ("double", "bracket", 1): [
        "bracket antisymmetry fails at (0,1,2)",
        "bracket antisymmetry fails at (1,0,2)",
        "Jacobi fails at (0,1,1)",
        "Jacobi fails at (0,1,2)",
        "Jacobi fails at (0,2,1)",
        "Jacobi fails at (0,3,1)",
        "Jacobi fails at (1,0,1)",
        "Jacobi fails at (1,0,2)",
        "Jacobi fails at (1,0,3)",
        "Jacobi fails at (1,1,0)",
        "Jacobi fails at (1,2,0)",
        "Jacobi fails at (2,0,1)",
        "Jacobi fails at (2,1,0)",
        "Jacobi fails at (3,1,0)",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
    ],
    ("double", "cobracket", 1): [
        "cobracket antisymmetry fails at generator 1",
        "co-Jacobi fails at generator 1",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
        "cocycle condition fails at (1,2)",
        "cocycle condition fails at (1,3)",
        "cocycle condition fails at (2,1)",
        "cocycle condition fails at (3,1)",
    ],
    ("adjoint", "actions", 1): [
        "action axiom fails at (0,1)",
        "action axiom fails at (1,0)",
        "action-coaction compatibility fails at (0,1)",
        "action-coaction compatibility fails at (1,1)",
    ],
    ("adjoint", "coactions", 1): [
        "coaction axiom fails at (0,1)",
        "coaction axiom fails at (1,0)",
        "action-coaction compatibility fails at (1,0)",
        "action-coaction compatibility fails at (1,1)",
    ],
    ("borel", "bracket", 2): [
        "bracket antisymmetry fails at (0,0,0)",
        "Jacobi fails at (0,0,0)",
        "Jacobi fails at (0,0,1)",
        "Jacobi fails at (0,1,0)",
        "Jacobi fails at (1,0,0)",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
    ],
    ("borel", "cobracket", 2): [
        "cobracket antisymmetry fails at generator 0",
        "co-Jacobi fails at generator 0",
        "co-Jacobi fails at generator 1",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
    ],
    ("double", "bracket", 2): [
        "bracket antisymmetry fails at (0,0,0)",
        "Jacobi fails at (0,0,0)",
        "Jacobi fails at (0,0,1)",
        "Jacobi fails at (0,0,3)",
        "Jacobi fails at (0,1,0)",
        "Jacobi fails at (0,1,3)",
        "Jacobi fails at (0,3,0)",
        "Jacobi fails at (0,3,1)",
        "Jacobi fails at (1,0,0)",
        "Jacobi fails at (1,0,3)",
        "Jacobi fails at (1,3,0)",
        "Jacobi fails at (3,0,0)",
        "Jacobi fails at (3,0,1)",
        "Jacobi fails at (3,1,0)",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
    ],
    ("double", "cobracket", 2): [
        "cobracket antisymmetry fails at generator 0",
        "co-Jacobi fails at generator 0",
        "co-Jacobi fails at generator 1",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (0,3)",
        "cocycle condition fails at (1,0)",
        "cocycle condition fails at (1,3)",
        "cocycle condition fails at (3,0)",
        "cocycle condition fails at (3,1)",
    ],
    ("adjoint", "actions", 2): [
        "action axiom fails at (0,1)",
        "action axiom fails at (1,0)",
        "action-coaction compatibility fails at (0,1)",
        "action-coaction compatibility fails at (1,1)",
    ],
    ("adjoint", "coactions", 2): [
        "coaction axiom fails at (0,1)",
        "coaction axiom fails at (1,0)",
        "action-coaction compatibility fails at (1,0)",
        "action-coaction compatibility fails at (1,1)",
    ],
    ("borel", "bracket", 3): [
        "bracket antisymmetry fails at (0,0,1)",
        "Jacobi fails at (0,0,0)",
        "cocycle condition fails at (0,0)",
    ],
    ("borel", "cobracket", 3): [
        "cobracket antisymmetry fails at generator 0",
        "co-Jacobi fails at generator 0",
        "co-Jacobi fails at generator 1",
    ],
    ("double", "bracket", 3): [
        "bracket antisymmetry fails at (1,1,2)",
        "Jacobi fails at (1,1,1)",
        "Jacobi fails at (1,1,3)",
        "Jacobi fails at (1,3,1)",
        "Jacobi fails at (3,1,1)",
    ],
    ("double", "cobracket", 3): [
        "cobracket antisymmetry fails at generator 1",
        "co-Jacobi fails at generator 1",
        "cocycle condition fails at (0,1)",
        "cocycle condition fails at (1,0)",
        "cocycle condition fails at (1,2)",
        "cocycle condition fails at (1,3)",
        "cocycle condition fails at (2,1)",
        "cocycle condition fails at (3,1)",
    ],
    ("adjoint", "actions", 3): [
        "action axiom fails at (0,1)",
        "action axiom fails at (1,0)",
        "action-coaction compatibility fails at (0,0)",
        "action-coaction compatibility fails at (0,1)",
        "action-coaction compatibility fails at (1,1)",
    ],
    ("adjoint", "coactions", 3): [
        "coaction axiom fails at (0,1)",
        "coaction axiom fails at (1,0)",
        "action-coaction compatibility fails at (0,0)",
        "action-coaction compatibility fails at (1,0)",
        "action-coaction compatibility fails at (1,1)",
    ],
}


def _perturbed_report(target, tensor, seed):
    b = borel_sl2()
    if target == "adjoint":
        adj = adjoint_module(b)
        actions, coactions = adj.actions, adj.coactions
        if tensor == "actions":
            actions = _perturbed(actions, seed)
        else:
            coactions = _perturbed(coactions, seed)
        return validate_dy_module(b, DYModuleData(b, actions, coactions))
    a = b if target == "borel" else drinfeld_double(b)
    bracket, cobracket = a.bracket, a.cobracket
    if tensor == "bracket":
        bracket = _perturbed(bracket, seed)
    else:
        cobracket = _perturbed(cobracket, seed)
    return validate_bialgebra(LieBialgebraData(a.dim, bracket, cobracket))


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_validator_reports_pinned(case):
    assert _perturbed_report(*case) == PINNED_REPORTS[case]


def _cocycle_failures(pairs):
    return [f"cocycle condition fails at ({i},{j})" for i, j in pairs]


# (full report, report inside the window) of validate_bialgebra(b) and
# validate_bialgebra(b, max_weight=cap) on Kac-Moody Borels, recorded before
# the validators went through the slice evaluator.  The truncated Borels
# fail only outside their window; the perturbed A2 bracket fails both
# inside and outside it, in Jacobi and in the cocycle condition.
PINNED_WINDOWS = {
    ("G2", 4, None): (_cocycle_failures([(5, 8), (6, 7), (7, 6), (8, 5)]), []),
    ("affine A2", 3, None): (_cocycle_failures(
        [(6, 12), (6, 13), (7, 12), (7, 13), (8, 12), (8, 13)]
        + [(9, j) for j in (10, 11, 12, 13)]
        + [(10, j) for j in (9, 11, 12, 13)]
        + [(11, j) for j in (9, 10, 12, 13)]
        + [(i, j) for i in (12, 13) for j in range(6, 12)]), []),
    ("A2", 2, 28): (
        ["bracket antisymmetry fails at (0,5,1)",
         "bracket antisymmetry fails at (5,0,1)"]
        + [f"Jacobi fails at {idx}" for idx in (
            "(0,5,4)", "(0,5,5)", "(0,5,6)", "(4,0,5)", "(5,0,5)", "(5,4,0)",
            "(5,5,0)", "(5,6,0)", "(6,0,5)")]
        + _cocycle_failures([(5, 6), (6, 5)]),
        ["bracket antisymmetry fails at (0,5,1)",
         "bracket antisymmetry fails at (5,0,1)"]
        + [f"Jacobi fails at {idx}" for idx in (
            "(0,5,4)", "(0,5,5)", "(4,0,5)", "(5,0,5)", "(5,4,0)",
            "(5,5,0)")]),
}

WINDOW_CARTANS = {"G2": [[2, -1], [-3, 2]],
                  "affine A2": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
                  "A2": [[2, -1], [-1, 2]]}


@pytest.mark.parametrize("case", list(PINNED_WINDOWS),
                         ids=lambda case: "-".join(map(str, case)))
def test_windowed_reports_pinned(case):
    name, cap, bracket_seed = case
    b = build_kac_moody_borel(WINDOW_CARTANS[name], cap)
    if bracket_seed is not None:
        b = LieBialgebraData(b.dim, _perturbed(b.bracket, bracket_seed),
                             b.cobracket, b.weights, b.basis_names)
    full, windowed = PINNED_WINDOWS[case]
    assert validate_bialgebra(b) == full
    assert validate_bialgebra(b, max_weight=cap) == windowed


def test_evaluate_unit_and_linearity():
    b = borel_sl2()
    adj = adjoint_module(b)
    assert evaluate(AlgebraElement.unit(1), [adj]) == eye(4)
    k = kappa(1, 1)
    assert evaluate(3 * k, [adj]) == mscale(3, evaluate(k, [adj]))


def _msum(mats):
    return functools.reduce(madd, mats)


def test_key_matrices_against_hand_built_products():
    # the key -> matrix convention, built from the module tensors alone
    adj = adjoint_module(borel_sl2())
    A, K, d = adj.actions, adj.coactions, 2
    pairs = list(itertools.product(range(d), repeat=2))
    cases = [
        (((1,), (1,), (1,), (0,)),
         _msum(matmul(A[i], K[i]) for i in range(d))),
        (((2,), (2,), (1, 2), (0, 0)),
         _msum(matmul(matmul(A[i], A[j]), matmul(K[j], K[i]))
               for i, j in pairs)),
        (((2,), (2,), (2, 1), (0, 0)),
         _msum(matmul(matmul(A[j], A[i]), matmul(K[j], K[i]))
               for i, j in pairs)),
    ]
    for key, want in cases:
        assert evaluate(AlgebraElement.basis(1, key), [adj]) == want
    two = [
        (((1, 0), (0, 1), (1,), (0,)),
         _msum(kron(K[i], A[i]) for i in range(d))),
        (((0, 1), (1, 0), (1,), (0,)),
         _msum(kron(A[i], K[i]) for i in range(d))),
    ]
    for key, want in two:
        assert evaluate(AlgebraElement.basis(2, key), [adj, adj]) == want


def test_slices_of_key_straighten_back_to_the_key():
    for monoid in (TRIVIAL, SPLIT, RootCone(2, 1)):
        decorated = not monoid.is_trivial()
        for n, max_deg in ((1, 3), (2, 3), (3, 2)):
            for deg in range(max_deg + 1):
                for key in enumerate_basis(n, deg, monoid):
                    assert straighten(slices_of_key(key, decorated), n,
                                      monoid) == AlgebraElement.basis(
                                          n, key, monoid)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32))
def test_realization_homomorphism_two_slots(seed_x, seed_y):
    adj = adjoint_module(borel_sl2())
    x, y = (straighten(random_term(2, random.Random(seed), max_nodes=4), 2)
            for seed in (seed_x, seed_y))
    assert evaluate(x * y, [adj, adj]) == matmul(evaluate(x, [adj, adj]),
                                                 evaluate(y, [adj, adj]))


def test_realization_homomorphism_all_pairs_strings_leq_3():
    b = borel_sl2()
    adj = adjoint_module(b)
    for d1 in range(3):
        for d2 in range(3 - d1 + 1):
            if d1 + d2 > 3:
                continue
            for k1 in enumerate_basis(1, d1):
                for k2 in enumerate_basis(1, d2):
                    x = AlgebraElement.basis(1, k1)
                    y = AlgebraElement.basis(1, k2)
                    assert evaluate(x * y, [adj]) == matmul(
                        evaluate(x, [adj]), evaluate(y, [adj]))


def test_cybe_for_canonical_element_on_matrices():
    b = borel_sl2()
    adj = adjoint_module(b)
    triv = trivial_module(b)
    mods = [adj, adj, adj]
    r12, r13, r23 = (r_matrix(3, 1, 2), r_matrix(3, 1, 3), r_matrix(3, 2, 3))
    total = (r12.commutator(r13) + r12.commutator(r23)
             + r13.commutator(r23))
    assert evaluate(total, mods) == zeros(64)


def test_face_map_matches_module_tensor_product():
    b = borel_sl2()
    adj = adjoint_module(b)
    triv = trivial_module(b)
    both = tensor_module(adj, triv)
    rng = random.Random(4)
    for _ in range(6):
        deg = rng.randint(0, 2)
        key = rng.choice(enumerate_basis(2, deg))
        x = AlgebraElement.basis(2, key)
        merged = evaluate(face_map(1, x), [adj, triv, adj])
        direct = evaluate(x, [both, adj])
        assert merged == direct


def test_naturality_under_module_maps():
    # the action of any element commutes with the flip V(x)W -> W(x)V
    # composed with itself (a module morphism V(x)W -> V(x)W)
    b = borel_sl2()
    adj = adjoint_module(b)
    x = kappa(2, 1) * r_matrix(2, 1, 2)
    m = evaluate(x, [adj, adj])
    dim = adj.dim
    flip = [[Fraction(0)] * dim ** 2 for _ in range(dim ** 2)]
    for i in range(dim):
        for j in range(dim):
            flip[j * dim + i][i * dim + j] = Fraction(1)
    flip = tuple(tuple(r) for r in flip)
    y = evaluate(
        __import__("dyalg.algebra", fromlist=["slot_permute"]).slot_permute(
            x, (2, 1)), [adj, adj])
    assert matmul(flip, m) == matmul(y, flip)


def test_up_down_diagram_on_split_pair():
    # big = borel of sl2 with its distinguished Cartan; small = the Cartan
    big = borel_sl2()
    small = cartan_of_borel_sl2()
    adj = adjoint_module(big)
    restricted = restrict_module(adj, small, [0])
    assert validate_dy_module(small, restricted) == []
    for deg in range(3):
        for key in enumerate_basis(1, deg):
            x = AlgebraElement.basis(1, key)
            # beta forgets the splitting: evaluates like x over the big one
            assert evaluate(beta_map(x), [adj]) == evaluate(x, [adj])
            # alpha restricts to the small sub-bialgebra
            assert evaluate(alpha_map(x), [adj]) == evaluate(x, [restricted])


def test_lie_bialgebra_json_round_trip():
    b = borel_sl2()
    back = LieBialgebraData.from_json(b.to_json())
    assert back.bracket == b.bracket and back.cobracket == b.cobracket
    assert back.weights == b.weights


def test_open_leg_rule_evaluation():
    # exchange rule: both sides agree as maps with one open leg
    b = borel_sl2()
    adj = adjoint_module(b)
    lhs = evaluate_slices([("action", 1), ("coaction", 1)], 1, b, [adj],
                          initial_legs=1)
    swap = evaluate_slices([("coaction", 1), ("perm", (2, 1)), ("action", 1)],
                           1, b, [adj], initial_legs=1)
    bracket = evaluate_slices([("coaction", 1), ("mu",)], 1, b, [adj],
                              initial_legs=1)
    cobr = evaluate_slices([("delta",), ("action", 1)], 1, b, [adj],
                           initial_legs=1)
    total = {}
    for op, sign in ((swap, 1), (bracket, 1), (cobr, -1)):
        for out_state, row in op.items():
            for in_state, c in row.items():
                key = (out_state, in_state)
                total[key] = total.get(key, Fraction(0)) + sign * c
    lhs_flat = {(o, i): c for o, row in lhs.items() for i, c in row.items()}
    total = {k: v for k, v in total.items() if v}
    lhs_flat = {k: v for k, v in lhs_flat.items() if v}
    assert lhs_flat == total
