"""Finite-dimensional Lie bialgebras, Drinfeld doubles, Drinfeld-Yetter
modules, and exact evaluation of diagram elements as matrices.

Evaluation is the independent oracle for the straightening engine: every
rewrite rule and every normally ordered element can be checked against
matrices over the rationals on a fleet of concrete modules.  There is one
evaluator, :func:`evaluate_slices`, on slice terms; :func:`evaluate` runs
each basis key through it in its slice form
(:func:`dyalg.rewrite.slices_of_key`).  The straightening engine multiplies
basis keys through the same slice form, so three tests keep the convention
that turns a key into a matrix independent of it: module-matrix products
built by hand for sample keys, the straightening of every small key's slice
form back to the key, and multiplicativity on one- and two-slot products.

Conventions.  ``bracket[i][j]`` is the coefficient vector of [x_i, x_j];
``cobracket[i]`` is the matrix of delta(x_i) with entry (j, k) the
coefficient of x_j (x) x_k.  A Drinfeld-Yetter module stores the action
matrices A_i of x_i and the coaction matrices K_i defined by
pi*(v) = sum_i x_i (x) K_i v.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import AlgebraElement
from .rewrite import slices_of_key

Matrix = tuple  # tuple of tuples of Fractions


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return tuple((Fraction(0),) * m for _ in range(n))


def eye(n: int) -> Matrix:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def madd(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mscale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col))
                       for col in bt) for row in a)


def kron(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(len(a[0]))
              for l in range(len(b[0])))
        for i in range(len(a)) for k in range(len(b)))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return madd(matmul(a, b), mscale(-1, matmul(b, a)))


class LieBialgebraData:
    """Structure constants of a finite-dimensional Lie bialgebra, with an
    optional weight grading of the basis (split labels or cone weights)."""

    def __init__(self, dim: int, bracket, cobracket, weights=None,
                 basis_names=None):
        self.dim = dim
        self.bracket = [[list(map(Fraction, bracket[i][j]))
                         for j in range(dim)] for i in range(dim)]
        self.cobracket = [mat(cobracket[i]) for i in range(dim)]
        self.weights = list(weights) if weights is not None else None
        self.basis_names = (list(basis_names) if basis_names
                            else [f"x{i + 1}" for i in range(dim)])

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "bracket": [[[str(c) for c in self.bracket[i][j]]
                         for j in range(self.dim)] for i in range(self.dim)],
            "cobracket": [[[str(c) for c in row] for row in self.cobracket[i]]
                          for i in range(self.dim)],
            "weights": self.weights,
            "basis_names": self.basis_names,
        }

    @staticmethod
    def from_json(data: dict) -> "LieBialgebraData":
        weights = data.get("weights")
        if weights is not None:
            weights = [tuple(w) if isinstance(w, list) else w for w in weights]
        return LieBialgebraData(
            data["dim"],
            [[[Fraction(c) for c in data["bracket"][i][j]]
              for j in range(data["dim"])] for i in range(data["dim"])],
            [[[Fraction(c) for c in row] for row in data["cobracket"][i]]
             for i in range(data["dim"])],
            weights, data.get("basis_names"))


def validate_bialgebra(a: LieBialgebraData,
                       max_weight: int | None = None) -> list[str]:
    """All violated axioms, with the offending indices; empty iff valid.

    With ``max_weight`` set, identity instances whose participating basis
    weights add up beyond it are skipped: in a height-truncated algebra
    those instances pass through discarded brackets and are not meaningful.
    """
    d = a.dim

    def ht(i: int) -> int:
        if a.weights is None or max_weight is None:
            return 0
        w = a.weights[i]
        return sum(w) if isinstance(w, tuple) else 0

    def inside(*idx) -> bool:
        return max_weight is None or sum(ht(i) for i in idx) <= max_weight

    report = []
    for i, j in itertools.product(range(d), repeat=2):
        for k in range(d):
            if a.bracket[i][j][k] != -a.bracket[j][i][k]:
                report.append(f"bracket antisymmetry fails at ({i},{j},{k})")
    for i, j, k in itertools.product(range(d), repeat=3):
        if not inside(i, j, k):
            continue
        jac = [Fraction(0)] * d
        for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
            for m, c in enumerate(a.bracket[x][y]):
                if not c:
                    continue
                for l, e in enumerate(a.bracket[m][z]):
                    if e:
                        jac[l] += c * e
        if any(jac):
            report.append(f"Jacobi fails at ({i},{j},{k})")
    for i in range(d):
        if any(a.cobracket[i][j][k] != -a.cobracket[i][k][j]
               for j, k in itertools.product(range(d), repeat=2)):
            report.append(f"cobracket antisymmetry fails at generator {i}")
    for i in range(d):
        # sum of the three cyclic rotations of (delta (x) id) delta
        tens = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
        for j in range(d):
            for c in range(d):
                djc = a.cobracket[i][j][c]
                if not djc:
                    continue
                for x in range(d):
                    for y in range(d):
                        dxy = a.cobracket[j][x][y]
                        if dxy:
                            tens[x][y][c] += djc * dxy
        bad = False
        for x, y, z in itertools.product(range(d), repeat=3):
            if tens[x][y][z] + tens[y][z][x] + tens[z][x][y]:
                bad = True
                break
        if bad:
            report.append(f"co-Jacobi fails at generator {i}")
    for i, j in itertools.product(range(d), repeat=2):
        if not inside(i, j):
            continue
        lhs = [[Fraction(0)] * d for _ in range(d)]
        for k in range(d):
            ck = a.bracket[i][j][k]
            if not ck:
                continue
            for x, y in itertools.product(range(d), repeat=2):
                lhs[x][y] += ck * a.cobracket[k][x][y]
        t = [[Fraction(0)] * d for _ in range(d)]
        for m in range(d):
            for x in range(d):
                dix = a.cobracket[i][x][m]
                djx = a.cobracket[j][x][m]
                for c in range(d):
                    if dix:
                        t[x][c] += dix * a.bracket[m][j][c]
                    if djx:
                        t[x][c] -= djx * a.bracket[m][i][c]
        rhs = [[t[x][y] - t[y][x] for y in range(d)] for x in range(d)]
        if lhs != rhs:
            report.append(f"cocycle condition fails at ({i},{j})")
    return report


class DYModuleData:
    """Action and coaction matrices of a Drinfeld-Yetter module."""

    def __init__(self, bialgebra: LieBialgebraData, actions, coactions,
                 name: str = "V"):
        self.bialgebra = bialgebra
        self.actions = [mat(m) for m in actions]
        self.coactions = [mat(m) for m in coactions]
        self.dim = len(self.actions[0]) if self.actions else 0
        self.name = name


def validate_dy_module(a: LieBialgebraData, v: DYModuleData) -> list[str]:
    d, report = a.dim, []
    if len(v.actions) != d or len(v.coactions) != d:
        return ["tensor count does not match bialgebra dimension"]
    for i, j in itertools.product(range(d), repeat=2):
        lhs = zeros(v.dim)
        for k in range(d):
            if a.bracket[i][j][k]:
                lhs = madd(lhs, mscale(a.bracket[i][j][k], v.actions[k]))
        if lhs != commutator(v.actions[i], v.actions[j]):
            report.append(f"action axiom fails at ({i},{j})")
    for p, q in itertools.product(range(d), repeat=2):
        lhs = zeros(v.dim)
        for i in range(d):
            if a.cobracket[i][p][q]:
                lhs = madd(lhs, mscale(a.cobracket[i][p][q], v.coactions[i]))
        if lhs != commutator(v.coactions[p], v.coactions[q]):
            report.append(f"coaction axiom fails at ({p},{q})")
    for i, j in itertools.product(range(d), repeat=2):
        lhs = commutator(v.coactions[j], v.actions[i])
        rhs = zeros(v.dim)
        for p in range(d):
            if a.bracket[i][p][j]:
                rhs = madd(rhs, mscale(a.bracket[i][p][j], v.coactions[p]))
            if a.cobracket[i][j][p]:
                rhs = madd(rhs, mscale(-a.cobracket[i][j][p], v.actions[p]))
        if lhs != rhs:
            report.append(f"action-coaction compatibility fails at ({i},{j})")
    return report


# ---------------------------------------------------------------------------
# doubles and the module fleet


def drinfeld_double(a: LieBialgebraData) -> LieBialgebraData:
    """The double on a + a*: invariant pairing, both halves isotropic.

    Basis: x_1..x_d then dual xi_1..xi_d.  Mixed bracket
    [x_i, xi_j] = sum_k cobracket_i^{jk} x_k - sum_k bracket_{ik}^j xi_k.
    """
    d = a.dim
    dim = 2 * d
    bracket = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j in itertools.product(range(d), repeat=2):
        for k in range(d):
            bracket[i][j][k] = a.bracket[i][j][k]
        for k in range(d):
            bracket[d + i][d + j][d + k] = a.cobracket[k][i][j]
        for k in range(d):
            bracket[i][d + j][k] = a.cobracket[i][j][k]
            bracket[i][d + j][d + k] = -a.bracket[i][k][j]
        for k in range(dim):
            bracket[d + j][i][k] = -bracket[i][d + j][k]
    cobracket = []
    for i in range(d):
        cobracket.append([[a.cobracket[i][j][k] if (j < d and k < d) else 0
                           for k in range(dim)] for j in range(dim)])
    for i in range(d):
        m = [[Fraction(0)] * dim for _ in range(dim)]
        for p, q in itertools.product(range(d), repeat=2):
            m[d + p][d + q] = -Fraction(a.bracket[p][q][i])
        cobracket.append(m)
    names = a.basis_names + [f"{nm}*" for nm in a.basis_names]
    return LieBialgebraData(dim, bracket, cobracket, None, names)


def double_pairing(dim_half: int):
    """The canonical symmetric form on the double in the basis above."""
    d2 = 2 * dim_half
    form = [[Fraction(0)] * d2 for _ in range(d2)]
    for i in range(dim_half):
        form[i][dim_half + i] = Fraction(1)
        form[dim_half + i][i] = Fraction(1)
    return mat(form)


def adjoint_module(a: LieBialgebraData) -> DYModuleData:
    """The double acting on itself; restriction along the two halves gives
    the Drinfeld-Yetter structure over the original bialgebra."""
    g = drinfeld_double(a)
    d = a.dim

    def ad(idx: int) -> Matrix:
        return tuple(tuple(Fraction(g.bracket[idx][j][k])
                           for j in range(g.dim)) for k in range(g.dim))

    actions = [ad(i) for i in range(d)]
    coactions = [ad(d + i) for i in range(d)]
    return DYModuleData(a, actions, coactions, name="adjoint-double")


def trivial_module(a: LieBialgebraData) -> DYModuleData:
    z = [zeros(1) for _ in range(a.dim)]
    return DYModuleData(a, z, z, name="trivial")


def tensor_module(v: DYModuleData, w: DYModuleData) -> DYModuleData:
    a = v.bialgebra
    iv, iw = eye(v.dim), eye(w.dim)
    actions = [madd(kron(v.actions[i], iw), kron(iv, w.actions[i]))
               for i in range(a.dim)]
    coactions = [madd(kron(v.coactions[i], iw), kron(iv, w.coactions[i]))
                 for i in range(a.dim)]
    return DYModuleData(a, actions, coactions,
                        name=f"{v.name}(x){w.name}")


def restrict_module(v: DYModuleData, small: LieBialgebraData,
                    indices: list[int]) -> DYModuleData:
    """View a module over a bialgebra as one over a sub-bialgebra spanned by
    the given basis indices: the coaction is projected onto the span."""
    actions = [v.actions[i] for i in indices]
    coactions = [v.coactions[i] for i in indices]
    return DYModuleData(small, actions, coactions,
                        name=f"{v.name}|restricted")


# standard small examples -----------------------------------------------------


def abelian_bialgebra(dim: int) -> LieBialgebraData:
    z = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    zc = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    return LieBialgebraData(dim, z, zc)


def borel_sl2() -> LieBialgebraData:
    """Basis (h, e): [h,e] = 2e, delta(h) = 0, delta(e) = e^h - h^e,
    split-weighted with h in the Cartan part."""
    bracket = [[[0, 0], [0, 2]], [[0, -2], [0, 0]]]
    cobracket = [
        [[0, 0], [0, 0]],
        [[0, -1], [1, 0]],
    ]
    return LieBialgebraData(2, bracket, cobracket, weights=[0, 1],
                            basis_names=["h", "e"])


def cartan_of_borel_sl2() -> LieBialgebraData:
    return LieBialgebraData(1, [[[0]]], [[[0]]], weights=[0],
                            basis_names=["h"])


# ---------------------------------------------------------------------------
# evaluation


def _weight_of(a: LieBialgebraData, idx: int):
    if a.weights is None:
        return None
    return a.weights[idx]


def evaluate(x: AlgebraElement, modules: list[DYModuleData]) -> Matrix:
    """Exact matrix of a normally ordered element on the tensor product of
    the modules.  Linear in x; multiplicative on products.

    Each basis key is evaluated through its slice form
    (:func:`dyalg.rewrite.slices_of_key`) by :func:`evaluate_slices`; the
    sparse results are summed and made dense once."""
    if len(modules) != x.n:
        raise ValueError("slot count mismatch")
    a = modules[0].bialgebra
    decorated = not x.monoid.is_trivial()
    if decorated and a.weights is None:
        raise ValueError("decorated element needs a weight-graded bialgebra")
    total: dict = {}
    for key, coeff in x.terms.items():
        op = evaluate_slices(slices_of_key(key, decorated), x.n, a, modules)
        for out_state, row in op.items():
            tgt = total.setdefault(out_state, {})
            for in_state, c in row.items():
                tgt[in_state] = tgt.get(in_state, 0) + coeff * c
    return dense_of_sparse(total, modules)


# slice terms ----------------------------------------------------------------


def evaluate_slices(slices: list, n: int, a: LieBialgebraData,
                    modules: list[DYModuleData], initial_legs: int = 0
                    ) -> dict:
    """Generic evaluation of a slice term (see :mod:`dyalg.terms`) as a
    sparse matrix keyed by ((a-indices, module-indices) out, (..) in).

    Works for any leg count and for open inputs (``initial_legs`` legs are
    present before the first slice), so it also evaluates the two sides of
    a single rewrite rule."""
    dims = [m.dim for m in modules]
    d = a.dim
    states = [(aidx, v)
              for aidx in itertools.product(range(d), repeat=initial_legs)
              for v in itertools.product(*[range(m) for m in dims])]
    op = {s: {s: Fraction(1)} for s in states}

    def apply(fn):
        new: dict = {}
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
                if _weight_of(a, aidx[pos - 1]) == alpha:
                    yield (state, Fraction(1))
        else:
            raise ValueError(f"unknown slice {sl!r}")
        op = apply(fn)
    return op


def dense_of_sparse(op: dict, modules: list[DYModuleData]) -> Matrix:
    """Convert a closed (no open legs) sparse slice evaluation, whose
    entries are Fractions, to a dense matrix on the module tensor
    product."""
    dims = [m.dim for m in modules]
    states = list(itertools.product(*[range(m) for m in dims]))
    index = {((), v): i for i, v in enumerate(states)}
    total = len(states)
    zero = Fraction(0)
    rows = [[zero] * total for _ in range(total)]
    for out_state, row in op.items():
        for in_state, c in row.items():
            rows[index[out_state]][index[in_state]] = c
    return tuple(map(tuple, rows))
