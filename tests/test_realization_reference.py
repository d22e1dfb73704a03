"""The sparse integer evaluator against a dense-scan Fraction reference.

``_reference_evaluate_slices`` is the evaluator ``dyalg.bialgebra`` had
before it moved onto cached integer tables: it scans the dense Fraction
tensors of the bialgebra and the modules for every state and multiplies
Fractions.  Criterion 03 and the benchmark compare two evaluations through
the same kernel, so these tests keep an evaluator outside it.  Together they
cover every denominator path: unit tables, the 1/2 entries of the A2
Kac-Moody Borel's cobracket, and a module whose action and coaction
matrices have other denominators.
"""

import itertools
import random
from fractions import Fraction

import pytest

from dyalg.algebra import (AlgebraElement, enumerate_basis, kappa,
                           kappa_alpha, rho_tilde_b)
from dyalg.bialgebra import (DYModuleData, abelian_bialgebra, adjoint_module,
                             borel_sl2, dense_of_sparse, evaluate,
                             evaluate_slices, matmul, mat, tensor_module,
                             validate_dy_module)
from dyalg.kacmoody import build_kac_moody_borel
from dyalg.monoids import RootCone
from dyalg.rewrite import slices_of_key
from dyalg.terms import random_term
from test_acceptance import RULES, SEED


def _reference_evaluate_slices(slices, n, a, modules, initial_legs=0):
    dims = [m.dim for m in modules]
    d = a.dim
    states = [(aidx, v)
              for aidx in itertools.product(range(d), repeat=initial_legs)
              for v in itertools.product(*[range(m) for m in dims])]
    op = {s: {s: Fraction(1)} for s in states}

    def apply(fn):
        new = {}
        for out_state, row in op.items():
            for new_state, c in fn(out_state):
                if not c:
                    continue
                tgt = new.setdefault(new_state, {})
                for in_state, c0 in row.items():
                    val = tgt.get(in_state, Fraction(0)) + c * c0
                    if val:
                        tgt[in_state] = val
                    else:
                        tgt.pop(in_state, None)
        return {k: v for k, v in new.items() if v}

    for sl in slices:
        kind = sl[0]
        if kind == "coaction":
            slot = sl[1] - 1

            def fn(state, slot=slot):
                aidx, vidx = state
                m = modules[slot]
                col = vidx[slot]
                for i in range(d):
                    for row in range(m.dim):
                        c = m.coactions[i][row][col]
                        if c:
                            yield ((aidx + (i,),
                                    vidx[:slot] + (row,) + vidx[slot + 1:]), c)
        elif kind == "action":
            slot = sl[1] - 1

            def fn(state, slot=slot):
                aidx, vidx = state
                m = modules[slot]
                i = aidx[-1]
                col = vidx[slot]
                for row in range(m.dim):
                    c = m.actions[i][row][col]
                    if c:
                        yield ((aidx[:-1],
                                vidx[:slot] + (row,) + vidx[slot + 1:]), c)
        elif kind == "mu":

            def fn(state):
                aidx, vidx = state
                i, j = aidx[-2], aidx[-1]
                for k in range(d):
                    c = a.bracket[i][j][k]
                    if c:
                        yield ((aidx[:-2] + (k,), vidx), c)
        elif kind == "delta":

            def fn(state):
                aidx, vidx = state
                i = aidx[-1]
                for j in range(d):
                    for k in range(d):
                        c = a.cobracket[i][j][k]
                        if c:
                            yield ((aidx[:-1] + (j, k), vidx), c)
        elif kind == "perm":
            sigma = sl[1]

            def fn(state, sigma=sigma):
                aidx, vidx = state
                new = [0] * len(sigma)
                for q in range(len(sigma)):
                    new[sigma[q] - 1] = aidx[q]
                yield ((tuple(new), vidx), Fraction(1))
        elif kind == "decor":
            pos, alpha = sl[1], sl[2]

            def fn(state, pos=pos, alpha=alpha):
                aidx, vidx = state
                if a.weights[aidx[pos - 1]] == alpha:
                    yield (state, Fraction(1))
        else:
            raise ValueError(f"unknown slice {sl!r}")
        op = apply(fn)
    return op


def _reference_evaluate(x, modules):
    a = modules[0].bialgebra
    decorated = not x.monoid.is_trivial()
    total = {}
    for key, coeff in x.terms.items():
        op = _reference_evaluate_slices(slices_of_key(key, decorated), x.n,
                                        a, modules)
        for out_state, row in op.items():
            tgt = total.setdefault(out_state, {})
            for in_state, c in row.items():
                tgt[in_state] = tgt.get(in_state, 0) + coeff * c
    return dense_of_sparse(total, modules)


def _fleets():
    b = borel_sl2()
    adj = adjoint_module(b)
    a1 = abelian_bialgebra(1)
    return [(b, adj), (b, tensor_module(adj, adj)), (a1, adjoint_module(a1))]


def test_rule_sides_with_open_legs_match_reference():
    for lhs, rhs, legs in RULES:
        for bia, mod in _fleets():
            for slices in [lhs] + [part for part, _ in rhs]:
                assert evaluate_slices(
                    slices, 1, bia, [mod], initial_legs=legs
                ) == _reference_evaluate_slices(slices, 1, bia, [mod], legs)


def test_criterion_03_random_terms_match_reference():
    # the seeded draws of criterion 03's random-term loop
    rng = random.Random(SEED)
    fleets = _fleets()
    for _ in range(100):
        n = rng.choice([1, 1, 2])
        slices = random_term(n, rng, max_nodes=6)
        for bia, mod in fleets:
            mods = [mod] * n
            assert evaluate_slices(slices, n, bia, mods) == \
                _reference_evaluate_slices(slices, n, bia, mods)


@pytest.fixture(scope="module")
def km_adjoint():
    borel = build_kac_moody_borel([[2, -1], [-1, 2]], 2)
    assert {c for m in borel.cobracket for row in m for c in row} >= {
        Fraction(1, 2), Fraction(-1, 2)}
    return adjoint_module(borel)


def test_decorated_km_elements_match_reference(km_adjoint):
    cone = RootCone(2, 4)
    elements = [kappa_alpha(alpha, cone) for alpha in cone.elements()
                if sum(alpha) <= 2]
    elements += [rho_tilde_b(AlgebraElement.basis(1, key), cone, {1, 2}, 2)
                 for key in enumerate_basis(1, 1)]
    for x in elements:
        assert evaluate(x, [km_adjoint]) == _reference_evaluate(
            x, [km_adjoint])


def _conjugated(v, diag):
    """v transported along the basis change D = diag(diag): D M D^-1."""
    def conj(m):
        return mat([[m[r][c] * diag[r] / diag[c] for c in range(v.dim)]
                    for r in range(v.dim)])
    return DYModuleData(v.bialgebra, [conj(m) for m in v.actions],
                        [conj(m) for m in v.coactions], name=f"{v.name}^D")


def test_module_with_fractional_tables_matches_reference():
    b = borel_sl2()
    adj = adjoint_module(b)
    diag = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
    conj = _conjugated(adj, diag)
    assert conj.action_table[0] > 1 and conj.coaction_table[0] > 1
    assert validate_dy_module(b, conj) == []
    dmat = mat([[diag[r] if r == c else 0 for c in range(4)]
                for r in range(4)])
    dinv = mat([[1 / diag[r] if r == c else 0 for c in range(4)]
                for r in range(4)])
    keys = [(1, key) for deg in range(3) for key in enumerate_basis(1, deg)]
    elements = [AlgebraElement.basis(n, key) for n, key in keys]
    elements += [Fraction(2, 3) * kappa(1, 1), kappa(2, 1) - kappa(2, 2)]
    for x in elements:
        got = evaluate(x, [conj] * x.n)
        assert got == _reference_evaluate(x, [conj] * x.n)
        if x.n == 1:
            assert got == matmul(dmat, matmul(evaluate(x, [adj]), dinv))
    rng = random.Random(SEED)
    for _ in range(10):
        n = rng.choice([1, 2])
        slices = random_term(n, rng, max_nodes=5)
        assert evaluate_slices(slices, n, b, [conj] * n) == \
            _reference_evaluate_slices(slices, n, b, [conj] * n)
