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

Arithmetic.  These dense Fraction attributes are read-only after
construction.  On first use each object builds sparse integer tables of
them, one common denominator per kind of table, and caches them
(:attr:`LieBialgebraData.bracket_table`, ``cobracket_table``,
:attr:`DYModuleData.action_table`, ``coaction_table``).  Only the integer
kernel :func:`_integer_slices` reads these tables, and it computes in
Python ints: an evaluation carries the product of the denominators of the
slices it applied, and Fractions are built once per output entry at the
end.

Validation.  Each axiom is stated once, as a signed sum of slice terms
with open legs, and both validators evaluate it through the same kernel,
summing the terms over the lcm of their scales.  The module axioms and the
cocycle condition are the relations that straightening orients (see
:mod:`dyalg.rewrite`): action axiom = ACT_MU, coaction axiom =
DELTA_COACT, cocycle condition = COCYCLE, action-coaction compatibility =
EXCHANGE.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .algebra import AlgebraElement, _rational
from .permutations import _natural
from .rewrite import slices_of_key

Matrix = tuple  # tuple of tuples of Fractions


def _fractions(xs) -> list[Fraction]:
    """The entries as Fractions; an entry that already is one is kept."""
    return [x if isinstance(x, Fraction) else Fraction(x) for x in xs]


def mat(rows) -> Matrix:
    return tuple(tuple(_fractions(row)) for row in rows)


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


def _is_cube(t, dim: int) -> bool:
    """Whether ``t`` is a dim x dim x dim nested sequence."""
    return len(t) == dim and all(
        len(m) == dim and all(len(row) == dim for row in m) for m in t)


def _lcm_of_denominators(values) -> int:
    return math.lcm(1, *(c.denominator for c in values))


def _integer_entries(m: Matrix, scale: int) -> list:
    """The non-zero entries of ``m`` as ``(row, col, c)``, c = entry * scale
    (an int when scale is a common denominator)."""
    return [(r, k, c.numerator * (scale // c.denominator))
            for r, row in enumerate(m) for k, c in enumerate(row) if c]


def _collect(entries) -> dict:
    """The non-zero sums of ``(position, value)`` pairs, by position."""
    out: dict = {}
    for pos, v in entries:
        out[pos] = out.get(pos, 0) + v
    return {pos: v for pos, v in out.items() if v}


class LieBialgebraData:
    """Structure constants of a finite-dimensional Lie bialgebra, with an
    optional weight grading of the basis (split labels or cone weights).

    ``bracket`` and ``cobracket`` are read-only after construction: the
    sparse integer tables are built from them on first use and cached.
    A tensor of the wrong shape, a weight list whose length is not ``dim``,
    or a weight that is neither a non-negative int (a split label) nor a
    tuple of them (a cone weight) raises ``ValueError``."""

    def __init__(self, dim: int, bracket, cobracket, weights=None,
                 basis_names=None):
        if not _is_cube(bracket, dim):
            raise ValueError(f"bracket must be {dim} x {dim} x {dim}")
        if not _is_cube(cobracket, dim):
            raise ValueError(
                f"cobracket must be {dim} matrices of {dim} x {dim}")
        if weights is not None and len(weights) != dim:
            raise ValueError(f"{len(weights)} weights for dimension {dim}")
        for i, w in enumerate(weights or ()):
            if isinstance(w, tuple):
                for k, c in enumerate(w):
                    _natural(c, f"weight {i} entry {k}")
            else:
                _natural(w, f"weight {i}")
        self.dim = dim
        self.bracket = [[_fractions(vec) for vec in plane]
                        for plane in bracket]
        self.cobracket = [mat(m) for m in cobracket]
        self.weights = list(weights) if weights is not None else None
        self.basis_names = (list(basis_names) if basis_names
                            else [f"x{i + 1}" for i in range(dim)])

    @cached_property
    def bracket_table(self) -> tuple[int, dict]:
        """``(scale, {(i, j): [(k, c), ...]})``: [x_i, x_j] is the sum of
        (c / scale) x_k over the non-zero integer constants c."""
        scale = _lcm_of_denominators(
            c for plane in self.bracket for vec in plane for c in vec)
        table: dict = {}
        for i, plane in enumerate(self.bracket):
            for j, k, c in _integer_entries(plane, scale):
                table.setdefault((i, j), []).append((k, c))
        return scale, table

    @cached_property
    def cobracket_table(self) -> tuple[int, list]:
        """``(scale, [[(j, k, c), ...] for each i])``: delta(x_i) is the sum
        of (c / scale) x_j (x) x_k over the non-zero integer constants c."""
        scale = _lcm_of_denominators(
            c for m in self.cobracket for row in m for c in row)
        return scale, [_integer_entries(m, scale) for m in self.cobracket]

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
        bracket, cobracket = (
            [[[_rational(c, f"{field} entry") for c in row] for row in m]
             for m in data[field]] for field in ("bracket", "cobracket"))
        return LieBialgebraData(_natural(data["dim"], "dim"), bracket,
                                cobracket, weights, data.get("basis_names"))


# Each axiom is stated once, as a signed sum of slice terms with open legs
# that vanishes on valid data: ``(message, open legs, names outputs,
# windowed, [(sign, slices), ...])``.  Its message names the input legs of
# each instance with a non-zero entry, followed by the output legs when
# ``names outputs`` is set.
_MU, _DELTA = ("mu",), ("delta",)
_ACT, _COACT = ("action", 1), ("coaction", 1)
_SWAP, _CYCLE = ("perm", (2, 1)), ("perm", (3, 1, 2))

_BIALGEBRA_AXIOMS = (
    # [x, y] + [y, x]
    ("bracket antisymmetry fails at ({},{},{})", 2, True, False,
     [(1, [_MU]), (1, [_SWAP, _MU])]),
    # the cyclic sum of [[x, y], z]: each term brings the rotation's z to
    # the front, brackets the other two, and brackets the result with z
    ("Jacobi fails at ({},{},{})", 3, False, True,
     [(1, [("perm", sigma), _MU, _SWAP, _MU])
      for sigma in ((2, 3, 1), (1, 2, 3), (3, 1, 2))]),
    # delta(x) + flip(delta(x))
    ("cobracket antisymmetry fails at generator {}", 1, False, False,
     [(1, [_DELTA]), (1, [_DELTA, _SWAP])]),
    # the cyclic sum of (delta (x) id) delta(x)
    ("co-Jacobi fails at generator {}", 1, False, False,
     [(1, [_DELTA, _SWAP, _DELTA, ("perm", sigma)])
      for sigma in ((3, 1, 2), (1, 2, 3), (2, 3, 1))]),
    # COCYCLE: delta([x, y]) = t - flip(t), where t is the sum of
    # (delta x)[-, y] and -(delta y)[-, x]
    ("cocycle condition fails at ({},{})", 2, False, True,
     [(1, [_MU, _DELTA]),
      (-1, [_SWAP, _DELTA, _CYCLE, _MU]),
      (1, [_DELTA, _CYCLE, _MU]),
      (1, [_SWAP, _DELTA, _CYCLE, _MU, _SWAP]),
      (-1, [_DELTA, _CYCLE, _MU, _SWAP])]),
)


def validate_bialgebra(a: LieBialgebraData,
                       max_weight: int | None = None) -> list[str]:
    """All violated axioms, with the offending indices; empty iff valid.

    With ``max_weight`` set, Jacobi and cocycle instances whose input legs'
    weights add up beyond it are skipped: in a height-truncated algebra
    those instances pass through discarded brackets and are not meaningful.
    """
    return _violations(_BIALGEBRA_AXIOMS, a, [], max_weight)


class DYModuleData:
    """Action and coaction matrices of a Drinfeld-Yetter module.

    ``actions`` and ``coactions`` are read-only after construction: the
    sparse integer tables are built from them on first use and cached."""

    def __init__(self, bialgebra: LieBialgebraData, actions, coactions,
                 name: str = "V"):
        self.bialgebra = bialgebra
        self.actions = [mat(m) for m in actions]
        self.coactions = [mat(m) for m in coactions]
        self.dim = len(self.actions[0]) if self.actions else 0
        self.name = name

    @cached_property
    def action_table(self) -> tuple[int, list]:
        """``(scale, [columns of A_i for each i])`` where column ``col`` of
        A_i lists ``(row, c)``: A_i v_col is the sum of (c / scale) v_row."""
        scale = _lcm_of_denominators(
            c for m in self.actions for row in m for c in row)
        table = []
        for m in self.actions:
            columns = [[] for _ in range(self.dim)]
            for row, col, c in _integer_entries(m, scale):
                columns[col].append((row, c))
            table.append(columns)
        return scale, table

    @cached_property
    def coaction_table(self) -> tuple[int, list]:
        """``(scale, [[(i, row, c), ...] for each col])``: pi*(v_col) is the
        sum of (c / scale) x_i (x) v_row."""
        scale = _lcm_of_denominators(
            c for m in self.coactions for row in m for c in row)
        table = [[] for _ in range(self.dim)]
        for i, m in enumerate(self.coactions):
            for row, col, c in _integer_entries(m, scale):
                table[col].append((i, row, c))
        return scale, table


_DY_MODULE_AXIOMS = (
    # ACT_MU: A_[x, y] = A_x A_y - A_y A_x
    ("action axiom fails at ({},{})", 2, False, False,
     [(1, [_MU, _ACT]), (-1, [_ACT, _ACT]), (1, [_SWAP, _ACT, _ACT])]),
    # DELTA_COACT: sum_i delta_i^{pq} K_i = K_p K_q - K_q K_p
    ("coaction axiom fails at ({},{})", 0, True, False,
     [(1, [_COACT, _DELTA]), (-1, [_COACT, _COACT, _SWAP]),
      (1, [_COACT, _COACT])]),
    # EXCHANGE: K_j A_i = A_i K_j + sum_p [x_i, x_p]_j K_p
    #                     - sum_p delta_i^{jp} A_p
    ("action-coaction compatibility fails at ({},{})", 1, True, False,
     [(1, [_ACT, _COACT]), (-1, [_COACT, _SWAP, _ACT]),
      (-1, [_COACT, _MU]), (1, [_DELTA, _ACT])]),
)


def validate_dy_module(a: LieBialgebraData, v: DYModuleData) -> list[str]:
    """All violated module axioms, with the offending indices; empty iff
    valid."""
    if len(v.actions) != a.dim or len(v.coactions) != a.dim:
        return ["tensor count does not match bialgebra dimension"]
    return _violations(_DY_MODULE_AXIOMS, a, [v])


def _violations(axioms, a: LieBialgebraData, modules: list[DYModuleData],
                max_weight: int | None = None) -> list[str]:
    """The messages of the axioms violated on ``modules``, in the order of
    the axioms, each one's instances sorted by their indices.  Each term is
    evaluated by :func:`_integer_slices`; the terms are summed over the lcm
    of their scales.  A windowed axiom skips the instances whose input legs'
    summed height exceeds ``max_weight``."""
    weights = a.weights if a.weights is not None else [0] * a.dim
    height = [sum(w) if isinstance(w, tuple) else 0 for w in weights]

    def inside(legs: tuple) -> bool:
        return max_weight is None or sum(height[i] for i in legs) <= max_weight

    report = []
    for message, legs, names_outputs, windowed, terms in axioms:
        evaluated = [(sign, *_integer_slices(slices, a, modules, legs))
                     for sign, slices in terms]
        den = math.lcm(*(scale for _, _, scale in evaluated))
        total = _collect(((out_state, in_state), sign * c * (den // scale))
                         for sign, op, scale in evaluated
                         for out_state, row in op.items()
                         for in_state, c in row.items())
        failing = {ins + outs if names_outputs else ins
                   for (outs, _), (ins, _) in total
                   if not windowed or inside(ins)}
        report += [message.format(*idx) for idx in sorted(failing)]
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


def evaluate(x: AlgebraElement, modules: list[DYModuleData]) -> Matrix:
    """Exact matrix of a normally ordered element on the tensor product of
    the modules.  Linear in x; multiplicative on products.

    Each basis key is evaluated through its slice form
    (:func:`dyalg.rewrite.slices_of_key`) by the integer kernel of
    :func:`evaluate_slices`; the integer results are summed per
    denominator, and Fractions are built once per entry of the sum."""
    if len(modules) != x.n:
        raise ValueError("slot count mismatch")
    if not modules:
        raise ValueError("a 0-slot element acts on no module")
    a = modules[0].bialgebra
    decorated = not x.monoid.is_trivial()
    if decorated and a.weights is None:
        raise ValueError("decorated element needs a weight-graded bialgebra")
    sums: dict = {}  # denominator / x.den -> {(out, in): integer numerator}
    for key, num in x.num.items():
        op, scale = _integer_slices(slices_of_key(key, decorated), a,
                                    modules)
        acc = sums.setdefault(scale, {})
        for out_state, row in op.items():
            for in_state, c in row.items():
                pos = out_state, in_state
                acc[pos] = acc.get(pos, 0) + num * c
    den = math.lcm(1, *sums)
    total = _collect((pos, v * (den // part)) for part, acc in sums.items()
                     for pos, v in acc.items())
    den *= x.den
    op: dict = {}
    for (out_state, in_state), v in total.items():
        op.setdefault(out_state, {})[in_state] = Fraction(v, den)
    return dense_of_sparse(op, modules)


# slice terms ----------------------------------------------------------------


def evaluate_slices(slices: list, n: int, a: LieBialgebraData,
                    modules: list[DYModuleData], initial_legs: int = 0
                    ) -> dict:
    """Generic evaluation of a slice term (see :mod:`dyalg.terms`) as a
    sparse matrix keyed by ((a-indices, module-indices) out, (..) in),
    with non-zero Fraction entries.

    Works for any leg count and for open inputs (``initial_legs`` legs are
    present before the first slice), so it also evaluates the two sides of
    a single rewrite rule.

    ``n`` is never read: the slices fix the leg counts.  It stays in the
    signature because the benchmark workloads pass it positionally."""
    op, scale = _integer_slices(slices, a, modules, initial_legs)
    return {out_state: {in_state: Fraction(c, scale)
                        for in_state, c in row.items()}
            for out_state, row in op.items()}


def _integer_slices(slices: list, a: LieBialgebraData,
                    modules: list[DYModuleData], initial_legs: int = 0
                    ) -> tuple[dict, int]:
    """The integer kernel of :func:`evaluate_slices`: ``(op, scale)``, where
    the entries of op are non-zero ints and each stands for entry / scale.
    The scale is the product of the table scales of the slices applied."""
    d = a.dim
    states = [(aidx, v)
              for aidx in itertools.product(range(d), repeat=initial_legs)
              for v in itertools.product(*[range(m.dim) for m in modules])]
    op = {s: {s: 1} for s in states}
    scale = 1
    for sl in slices:
        kind = sl[0]
        if kind == "perm":
            sigma = sl[1]
            op = {(_permuted(aidx, sigma), vidx): row
                  for (aidx, vidx), row in op.items()}
            continue
        if kind == "decor":
            pos, alpha = sl[1] - 1, sl[2]
            weights = a.weights if a.weights is not None else [None] * d
            op = {s: row for s, row in op.items()
                  if weights[s[0][pos]] == alpha}
            continue
        if kind == "coaction":
            slot = sl[1] - 1
            den, by_col = modules[slot].coaction_table

            def images(aidx, vidx, slot=slot, by_col=by_col):
                head, tail = vidx[:slot], vidx[slot + 1:]
                return [((aidx + (i,), head + (row,) + tail), c)
                        for i, row, c in by_col[vidx[slot]]]
        elif kind == "action":
            slot = sl[1] - 1
            den, act = modules[slot].action_table

            def images(aidx, vidx, slot=slot, act=act):
                head, tail = vidx[:slot], vidx[slot + 1:]
                return [((aidx[:-1], head + (row,) + tail), c)
                        for row, c in act[aidx[-1]][vidx[slot]]]
        elif kind == "mu":
            den, bt = a.bracket_table

            def images(aidx, vidx, bt=bt):
                rest = aidx[:-2]
                return [((rest + (k,), vidx), c)
                        for k, c in bt.get(aidx[-2:], ())]
        elif kind == "delta":
            den, cobt = a.cobracket_table

            def images(aidx, vidx, cobt=cobt):
                rest = aidx[:-1]
                return [((rest + (j, k), vidx), c)
                        for j, k, c in cobt[aidx[-1]]]
        else:
            raise ValueError(f"unknown slice {sl!r}")
        op = _apply(op, images)
        scale *= den
    return op, scale


def _permuted(aidx: tuple, sigma: tuple) -> tuple:
    """Leg q of ``aidx`` moved to position sigma[q] (1-based)."""
    new = [0] * len(sigma)
    for q, target in enumerate(sigma):
        new[target - 1] = aidx[q]
    return tuple(new)


def _apply(op: dict, images) -> dict:
    """Compose the integer sparse matrix ``op`` with the linear map sending
    each out state (aidx, vidx) to ``images(aidx, vidx)``, a list of
    (state, non-zero int)."""
    new: dict = {}
    merged = set()  # states reached twice: only their rows can cancel
    for (aidx, vidx), row in op.items():
        for state, c in images(aidx, vidx):
            tgt = new.get(state)
            if tgt is None:
                new[state] = {i: c * c0 for i, c0 in row.items()}
            else:
                merged.add(state)
                for i, c0 in row.items():
                    tgt[i] = tgt.get(i, 0) + c * c0
    for state in merged:
        row = {i: c for i, c in new[state].items() if c}
        if row:
            new[state] = row
        else:
            del new[state]
    return new


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
