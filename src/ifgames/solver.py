"""Exact zero-sum solving: payoff matrices, reduction, LP, conditioning.

Every value-path computation is exact: payoff matrices are integer
numerators over one common denominator, one row (column) per follow class
of reduced strategies (those that follow the same verifier-win terminals,
and so have equal payoffs; :func:`~ifgames.strategy.follow_classes` finds
them without enumerating the strategies), built by a float64 BLAS product
when that denominator is at most 2**53 (exact, see ``build_matrix``) and by
an int64 product otherwise; the cell budgets count the strategies, not the
classes.  Reductions only merge duplicates or drop dominated strategies
(which preserves the game value).  The LP is one column-generation
(double-oracle) loop: its restricted problems run a fraction-free integer
simplex (Bareiss pivoting, Bland's rule) and its best-response pricing is
exact integer arithmetic.  Within ``DEFAULT_SIMPLEX_CAP`` cells the loop
starts from the whole matrix, so its first restricted LP is the game's LP;
a larger matrix starts from one row and one column and grows.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetError, GameError, ZeroProbabilityEventError
from .formula import Formula, has_chance
from .game import (
    DEFAULT_NODE_CAP,
    EXIST,
    NATURE,
    TERMINAL,
    UNIV,
    ExtensiveGame,
    build_semantic_game,
)
from .structure import Structure
from .strategy import (
    DEFAULT_STRATEGY_BUDGET,
    BehavioralStrategy,
    MixedStrategy,
    ReducedStrategy,
    StrategyList,
    _smallest_int_dtype,
    follow_classes,
    outcome_distribution,
    uniform_nature,
)

if TYPE_CHECKING:
    from .parser import EventPredicate

DEFAULT_CELL_BUDGET = 10**8  # payoff-matrix cells
_PRODUCT_BLOCK_CELLS = 4_000_000  # payoff cells per block of the product
DEFAULT_DOMINANCE_CAP = 300_000  # matrix cells
DEFAULT_SIMPLEX_CAP = 4_000  # matrix cells
_DOMINANCE_OPS_GUARD = 2_000_000_000


# ----------------------------------------------------------- payoff matrix

class PayoffMatrix:
    """Expected payoffs for the maximizer over reduced strategies.

    Cells are exact: ``num[i, j] / den``.  ``rows``/``cols`` list one
    strategy per row and column of the matrix as built;
    ``row_origin``/``col_origin`` index each current row and column in those
    lists, through duplicate merging and dominance elimination.  A row or
    column may stand for several strategies (a follow class, listed as its
    first member, see :func:`build_matrix`); ``members`` counts the
    strategies that the rows and the columns stand for in all (one each,
    unless given).  ``reduced`` marks the output of
    :func:`reduce_matrix`.
    """

    def __init__(self, rows: StrategyList, cols: StrategyList,
                 num: np.ndarray, den: int,
                 row_origin: np.ndarray | None = None,
                 col_origin: np.ndarray | None = None,
                 log: list[str] | None = None,
                 reduced: bool = False,
                 members: tuple[int, int] | None = None):
        self.rows = rows
        self.cols = cols
        self.num = num
        self.den = den
        self.row_origin = (np.arange(num.shape[0], dtype=np.int64)
                           if row_origin is None else row_origin)
        self.col_origin = (np.arange(num.shape[1], dtype=np.int64)
                           if col_origin is None else col_origin)
        self.log = log if log is not None else []
        self.reduced = reduced
        self.members = num.shape if members is None else members

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape

    def row_strategy(self, i: int) -> ReducedStrategy:
        return self.rows[int(self.row_origin[i])]

    def col_strategy(self, j: int) -> ReducedStrategy:
        return self.cols[int(self.col_origin[j])]


def _chance_reach(g: ExtensiveGame, lam: BehavioralStrategy) -> list[Fraction]:
    """Per node, the product of the chance probabilities along its history."""
    reach = [Fraction(1)]
    for node in range(1, len(g)):  # parents come before their children
        at = g.parent[node]
        if g.owner[at] == NATURE:
            reach.append(reach[at] * lam.distribution(at)[g.edge[node]])
        else:
            reach.append(reach[at])
    return reach


def build_matrix(g: ExtensiveGame, lam: BehavioralStrategy,
                 budget: int = DEFAULT_STRATEGY_BUDGET) -> PayoffMatrix:
    """Payoff matrix over the follow classes of both players' reduced
    strategies.

    A cell sums the chance masses of the verifier-win terminals that both
    strategies follow, so strategies that follow the same win terminals
    have equal payoffs: one row (column) per such class, listed in
    ``rows`` (``cols``) as its first member in enumeration order.  Merging
    duplicates over the classes therefore keeps the rows and columns that
    merging over every strategy would.  The classes come
    from :func:`~ifgames.strategy.follow_classes`, which does not enumerate
    the strategies; the cells from matrix products over the classes'
    win-terminal follow tables: float64 BLAS when the common denominator is
    at most 2**53 (exact, see the comment below), int64 otherwise.  Raises
    :class:`BudgetError` before the product when the strategies would give
    more than ``DEFAULT_CELL_BUDGET`` payoff cells, or follow cells on one
    side.
    """
    win_nodes = [t for t in g.terminals() if g.winner_of[t] == EXIST]
    rows, f_row, count_rows = follow_classes(g, EXIST, win_nodes, budget)
    cols, f_col, count_cols = follow_classes(g, UNIV, win_nodes, budget)
    cells = count_rows * count_cols
    if cells > DEFAULT_CELL_BUDGET:
        raise BudgetError("payoff cell", DEFAULT_CELL_BUDGET, cells)
    for count in (count_rows, count_cols):
        cells = count * len(win_nodes)
        if cells > DEFAULT_CELL_BUDGET:
            raise BudgetError("follow cell", DEFAULT_CELL_BUDGET, cells)
    reach = _chance_reach(g, lam)
    masses = [reach[t] for t in win_nodes]
    den = math.lcm(*(mass.denominator for mass in masses))
    dtype = _smallest_int_dtype(den)
    nums = np.array([int(m * den) for m in masses], dtype=np.int64)
    shape = (len(f_row), len(f_col))
    # A cell sums the masses of the win terminals that both strategies
    # follow.  Those terminals all lie in the outcome distribution of one
    # profile, so the cell, and every partial sum in any summation order, is
    # an integer in [0, den].  Up to 2**53 float64 represents each of them
    # exactly, so BLAS computes the exact product; beyond it int64 does.
    work = np.float64 if den <= 2**53 else np.int64
    weights = nums.astype(work)
    out = np.empty(shape, dtype=dtype)
    # The product runs in blocks of the larger side, with the masses on the
    # smaller one, so neither the weighted operand nor a product block grows
    # with the larger side.  A cell is the same sum either way round, so
    # when the columns are more, the blocks fill ``out.T``.
    big, small, target = ((f_row, f_col, out) if shape[0] >= shape[1]
                          else (f_col, f_row, out.T))
    weighted = small.T * weights[:, None]  # (terminals, smaller side)
    chunk = max(1, _PRODUCT_BLOCK_CELLS // min(shape))
    for start in range(0, len(big), chunk):
        block = big[start:start + chunk].astype(work) @ weighted
        target[start:start + chunk] = block.astype(dtype)
    return PayoffMatrix(rows, cols, out, den, members=(count_rows, count_cols))


# ---------------------------------------------------------------- reduction

def _first_occurrences(arr: np.ndarray) -> list[int]:
    """Index of the first row of each distinct row, in order."""
    seen: set[bytes] = set()
    keep: list[int] = []
    data = np.ascontiguousarray(arr)
    for i in range(len(data)):
        key = data[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def _row_sums(num: np.ndarray) -> list[int]:
    """Exact row sums, as Python integers.

    Each entry splits into its high and low 32 bits, whose sums cannot
    overflow int64 for any width under 2**31 columns, so the sums are
    exact even where the plain int64 sum would wrap.
    """
    wide = num.astype(np.int64, copy=False)
    high = (wide >> 32).sum(axis=1).tolist()
    low = (wide & 0xFFFFFFFF).sum(axis=1).tolist()
    return [(h << 32) + lo for h, lo in zip(high, low)]


def _dominated_mask(num: np.ndarray, weak: bool) -> np.ndarray:
    """Rows dominated by some other row: weakly (``>=`` in every column and
    ``>`` in some) or strictly (``>`` in every column).

    A weak dominator's row sum is larger by at least 1, a strict one's by
    at least the number of columns, and dominance is transitive, so every
    dominated row is dominated by an undominated one with a larger sum.
    The sweep takes the rows by sum, largest first, compares each row not
    yet marked with the rows whose sums are small enough, and marks those
    it dominates; marked rows are skipped as dominators.
    """
    sums = _row_sums(num)
    order = sorted(range(len(num)), key=sums.__getitem__, reverse=True)
    ranked = num[order]
    negated = [-sums[i] for i in order]  # ascending, for bisect
    margin = 1 if weak else num.shape[1]
    marked = np.zeros(len(num), dtype=bool)
    for k, i in enumerate(order):
        if marked[k]:
            continue
        start = bisect.bisect_left(negated, margin - sums[i])
        if start == len(num):
            continue
        rest = ranked[start:]
        # a row with a smaller sum that is nowhere above this one differs
        # from it somewhere, so this is weak dominance
        hit = (rest <= ranked[k]) if weak else (rest < ranked[k])
        marked[start:] |= hit.all(axis=1)
    out = np.empty(len(num), dtype=bool)
    out[order] = marked
    return out


def _merge_rows(num: np.ndarray, origin: np.ndarray, members: int,
                side: str, log: list[str]):
    """Keep the first of each set of equal rows, logging the merge against
    the ``members`` strategies that the rows stand for."""
    keep = _first_occurrences(num)
    if len(keep) != members:
        log.append(f"{side}: merged {members - len(keep)} duplicates "
                   f"({members} -> {len(keep)})")
    if len(keep) == len(num):
        return num, origin
    return num[keep], origin[keep]


def _drop_dominated_rows(num: np.ndarray, origin: np.ndarray, weak: bool,
                         side: str, log: list[str]):
    """Remove the rows that another row dominates (the rows maximize)."""
    if len(num) > 1:
        mask = _dominated_mask(num, weak)
        if mask.any():
            log.append(f"{side}: removed {int(mask.sum())} by "
                       f"{'weak' if weak else 'strict'} dominance")
            return num[~mask], origin[~mask]
    return num, origin


def reduce_matrix(m: PayoffMatrix, use_weak_dominance: bool = True) -> PayoffMatrix:
    """Merge duplicate rows/columns, then iterate dominance elimination.

    Strict dominance (better in every column, or row for the minimizer)
    always runs, weak dominance (no worse anywhere, better somewhere) too
    when the flag is set, until a fixpoint, provided the deduplicated
    matrix is within ``DEFAULT_DOMINANCE_CAP`` cells; above the cap only
    duplicate merging happens, which still preserves the game value.  The
    origins keep indexing ``m.rows`` and ``m.cols``.  Each step is written
    for the rows; the columns run it on the transpose, negated for
    dominance, because the column player minimizes.

    A reduced matrix is returned as it is, so reducing twice changes
    nothing, the log included.  Running the merge again would not be a
    no-op: dominance elimination can leave a row or column equal to
    another (Monty Hall's 3 x 6 matrix holds three pairs of equal columns).
    """
    if m.reduced:
        return m
    log = list(m.log)
    # the merge counts every strategy, also those that a class row of
    # build_matrix already stands for
    members_rows, members_cols = m.members
    num, row_origin = _merge_rows(m.num, m.row_origin, members_rows, "rows", log)
    num_t, col_origin = _merge_rows(num.T, m.col_origin, members_cols, "cols",
                                    log)
    num = num_t.T
    r, c = num.shape
    if r * c > DEFAULT_DOMINANCE_CAP or r * c * (r + c) > _DOMINANCE_OPS_GUARD:
        log.append(f"dominance elimination skipped: {r}x{c} exceeds the cap")
    else:
        passes = [False, True] if use_weak_dominance else [False]
        shape = None
        while num.shape != shape:
            shape = num.shape
            for weak in passes:
                num, row_origin = _drop_dominated_rows(num, row_origin, weak,
                                                       "rows", log)
                neg_t, col_origin = _drop_dominated_rows(-num.T, col_origin,
                                                         weak, "cols", log)
                num = -neg_t.T
    return PayoffMatrix(m.rows, m.cols, np.ascontiguousarray(num), m.den,
                        row_origin, col_origin, log, reduced=True,
                        members=m.members)


# ------------------------------------------------------------------ the LP

@dataclass
class Equilibrium:
    """Exact value plus one optimal mixed strategy per side.

    Mixes are supports over the matrix's current rows/columns; helpers lift
    them to reduced strategies through the matrix provenance.
    """

    value: Fraction
    row_mix: tuple[tuple[int, Fraction], ...]
    col_mix: tuple[tuple[int, Fraction], ...]
    matrix: PayoffMatrix = field(repr=False)

    def row_strategies(self) -> MixedStrategy:
        return MixedStrategy(EXIST, [(self.matrix.row_strategy(i), w)
                                     for i, w in self.row_mix])

    def col_strategies(self) -> MixedStrategy:
        return MixedStrategy(UNIV, [(self.matrix.col_strategy(j), w)
                                    for j, w in self.col_mix])


def _simplex_max(a: list[list[int]], s: int):
    """max 1'y  s.t.  a y <= s, y >= 0  (integers; all entries of ``a`` and
    ``s`` positive).

    Fraction-free tableau simplex (Bareiss pivoting), Bland's rule on
    entering and leaving choices.  The tableau holds integers and the real
    tableau is ``tableau / d``: each pivot on ``p`` updates every other row
    to ``(row * p - row[enter] * pivot_row) // d``, an exact division, and
    sets ``d = p > 0``.  Its choices are those of a rational tableau for
    ``(a / s) y <= 1``.  Returns (value, y, duals) of that problem.
    """
    n_rows = len(a)
    n_cols = len(a[0])
    width = n_cols + n_rows + 1
    tableau = []
    for i in range(n_rows):
        row = list(a[i]) + [0] * n_rows + [s]
        row[n_cols + i] = 1
        tableau.append(row)
    obj = [-1] * n_cols + [0] * (n_rows + 1)
    basis = list(range(n_cols, n_cols + n_rows))
    d = 1
    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(n_rows):
            coef = tableau[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio rhs / coef, compared without dividing
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise GameError("unbounded game LP; matrix entries out of range")
        pivot_row = tableau[leave]
        p = pivot_row[enter]
        for i in range(n_rows):
            if i != leave:
                tableau[i] = _eliminate(tableau[i], pivot_row, enter, p, d)
        obj = _eliminate(obj, pivot_row, enter, p, d)
        d = p
        basis[leave] = enter
    y = [Fraction(0)] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            y[b] = Fraction(tableau[i][-1], d)
    # a slack column of the integer tableau is that of (a / s) y <= 1 over s
    duals = [Fraction(s * obj[n_cols + i], d) for i in range(n_rows)]
    return Fraction(obj[-1], d), y, duals


def _eliminate(row: list[int], pivot_row: list[int], enter: int,
               p: int, d: int) -> list[int]:
    """One Bareiss row update; every division is exact."""
    f = row[enter]
    if f == 0:  # the row only rescales, and not at all when p == d
        return row if p == d else [x * p // d for x in row]
    return [(x * p - f * y) // d for x, y in zip(row, pivot_row)]


def _solve_int_matrix(num: list[list[int]], den: int):
    """Exact value and mixes of the zero-sum matrix ``num / den`` (rows
    maximize, every cell in [0, 1])."""
    shifted = [[c + den for c in row] for row in num]
    total, y, duals = _simplex_max(shifted, den)
    if total <= 0:
        raise GameError("game LP optimum is not positive")
    value = 1 / total - 1
    col_mix = [(j, w / total) for j, w in enumerate(y) if w != 0]
    if sum(duals, Fraction(0)) != total:
        raise GameError("strong duality failed in the game LP")
    row_mix = [(i, w / total) for i, w in enumerate(duals) if w != 0]
    return value, tuple(row_mix), tuple(col_mix)


def _exact_mix_scores(num: np.ndarray, den: int, mix):
    """Exact expected payoffs of a mix over the rows of ``num`` against
    every column (pass ``num.T`` for a column mix); returns (integer
    vector, scale) with score = vec/scale.  The vector is int64 when no
    score can exceed ``den * q <= 2**62``, Python integers otherwise."""
    q = math.lcm(*(w.denominator for _, w in mix))
    dtype = np.int64 if den * q <= 2**62 else object
    acc = np.zeros(num.shape[1], dtype=dtype)
    for idx, w in mix:
        acc += num[idx].astype(dtype) * int(w * q)
    return acc, den * q


def solve_zero_sum(m: PayoffMatrix) -> Equilibrium:
    """Exact equilibrium of the matrix game (rows maximize).

    A column-generation (double-oracle) loop: solve the restricted matrix
    on the integer tableau, add each side's exact best response that beats
    the restricted value, and stop when neither does.  A matrix of at most
    ``DEFAULT_SIMPLEX_CAP`` cells starts with every row and column, so its
    first restricted LP is the whole matrix; a larger one starts from its
    first row and column.  The result always passes
    :func:`verify_equilibrium`; a failure raises :class:`GameError`.
    """
    num = m.num
    n_rows, n_cols = m.shape
    if n_rows == 0 or n_cols == 0:
        raise GameError("empty payoff matrix")
    whole = n_rows * n_cols <= DEFAULT_SIMPLEX_CAP
    rset = list(range(n_rows)) if whole else [0]
    cset = list(range(n_cols)) if whole else [0]
    while True:
        sub = num[np.ix_(rset, cset)].tolist()
        value, row_local, col_local = _solve_int_matrix(sub, m.den)
        row_mix = tuple((rset[i], w) for i, w in row_local)
        col_mix = tuple((cset[j], w) for j, w in col_local)
        improved = False
        # best column response (minimizer) against the current row mix
        scores, scale = _exact_mix_scores(num, m.den, row_mix)
        j_best = int(np.argmin(scores))
        if Fraction(int(scores[j_best]), scale) < value:
            if j_best in cset:
                raise GameError("column generation repeated a column")
            cset.append(j_best)
            improved = True
        # best row response (maximizer) against the current column mix
        scores, scale = _exact_mix_scores(num.T, m.den, col_mix)
        i_best = int(np.argmax(scores))
        if Fraction(int(scores[i_best]), scale) > value:
            if i_best in rset:
                raise GameError("column generation repeated a row")
            rset.append(i_best)
            improved = True
        if not improved:
            break
    eq = Equilibrium(value, row_mix, col_mix, m)
    if not verify_equilibrium(m, eq):
        raise GameError("solver produced a non-equilibrium")
    return eq


def verify_equilibrium(m: PayoffMatrix, eq: Equilibrium) -> bool:
    """Exact maximin check: the row mix guarantees at least the value against
    every column and the column mix at most the value against every row."""
    if not eq.row_mix or not eq.col_mix:
        return False
    if any(w < 0 for _, w in eq.row_mix) or any(w < 0 for _, w in eq.col_mix):
        return False
    if (sum(w for _, w in eq.row_mix) != 1
            or sum(w for _, w in eq.col_mix) != 1):
        return False
    scores, scale = _exact_mix_scores(m.num, m.den, eq.row_mix)
    if Fraction(int(scores.min()), scale) != eq.value:
        return False
    scores, scale = _exact_mix_scores(m.num.T, m.den, eq.col_mix)
    return Fraction(int(scores.max()), scale) == eq.value


# ----------------------------------------------------------- truth values

def solve(game: ExtensiveGame, lam: BehavioralStrategy,
          budget: int = DEFAULT_STRATEGY_BUDGET,
          use_weak_dominance: bool = True) -> Equilibrium:
    """Equilibrium of a game: build the payoff matrix, reduce it, solve.

    The witness mixes refer to the reduced matrix (``eq.matrix``, whose
    ``log`` records the reduction) and lift to reduced strategies through
    its provenance.
    """
    matrix = build_matrix(game, lam, budget)
    return solve_zero_sum(reduce_matrix(matrix, use_weak_dominance))


def truth_value(m: Structure, phi: Formula, lam: BehavioralStrategy | None = None,
                *, node_cap: int = DEFAULT_NODE_CAP,
                budget: int = DEFAULT_STRATEGY_BUDGET,
                use_weak_dominance: bool = True) -> Equilibrium:
    """Equilibrium value of the semantic game (the sentence's truth value)."""
    game = build_semantic_game(m, phi, node_cap)
    if lam is None:
        lam = uniform_nature(game)
    return solve(game, lam, budget, use_weak_dominance)


@dataclass(frozen=True)
class ClassicalStatus:
    kind: str  # "true" | "false" | "indeterminate"
    value: Fraction


def classical_status(m: Structure, phi: Formula, **options) -> ClassicalStatus:
    """Game-theoretic truth/falsity of a chance-free sentence.

    Finite win-lose games make value 1 equivalent to a winning strategy for
    the verifier and value 0 to one for the falsifier; anything in between
    is indeterminate.
    """
    if has_chance(phi):
        raise GameError("classical status is defined for chance-free sentences")
    eq = truth_value(m, phi, None, **options)
    if eq.value == 1:
        return ClassicalStatus("true", eq.value)
    if eq.value == 0:
        return ClassicalStatus("false", eq.value)
    return ClassicalStatus("indeterminate", eq.value)


# ----------------------------------------------------------- conditioning

@dataclass(frozen=True)
class ConditionalValue:
    p_event: Fraction
    p_win_and_event: Fraction
    value: Fraction


def profile_outcomes(g: ExtensiveGame, lam: BehavioralStrategy,
                     row_mix: MixedStrategy, col_mix: MixedStrategy):
    """Terminal distribution of a mixed profile: (node, probability) pairs."""
    out: dict[int, Fraction] = {}
    for sigma, w_sigma in row_mix:
        for tau, w_tau in col_mix:
            weight = w_sigma * w_tau
            for node, mass in outcome_distribution(g, lam, sigma, tau).items():
                out[node] = out.get(node, Fraction(0)) + weight * mass
    return out


def mixed_expected_payoff(g: ExtensiveGame, lam: BehavioralStrategy,
                          row_mix: MixedStrategy, col_mix: MixedStrategy) -> Fraction:
    return conditional_value(g, lam, row_mix, col_mix, None).value


def conditional_value(g: ExtensiveGame, lam: BehavioralStrategy,
                      row_mix: MixedStrategy, col_mix: MixedStrategy,
                      event: EventPredicate | None) -> ConditionalValue:
    """P(maximizer wins | event) under a fixed profile, exactly.

    ``event=None`` conditions on the whole space, giving the unconditional
    expected payoff.  A zero-probability event is an error.
    """
    p_event = Fraction(0)
    p_win = Fraction(0)
    for node, p in profile_outcomes(g, lam, row_mix, col_mix).items():
        if event is not None and not event.holds(g, node):
            continue
        p_event += p
        if g.winner_of[node] == EXIST:
            p_win += p
    if p_event == 0:
        raise ZeroProbabilityEventError(
            f"event {event.text if event else 'true'} has probability zero "
            f"under this profile"
        )
    return ConditionalValue(p_event, p_win, p_win / p_event)


# ------------------------------------------------------------- simulation

_SAMPLE_BLOCK_STARTS = 4096  # play starts that simulate walks at once
_NEVER = 2**64 - 1  # a bound that no 64-bit draw exceeds


@dataclass
class SimulationReport:
    plays: int
    seed: int
    wins: int
    win_frequency: Fraction
    event_counts: dict[str, tuple[int, int]]  # name -> (hits, wins among hits)


def _thresholds(masses: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """How one 64-bit draw picks an index of an exact distribution, as
    ``(skip, bounds)``: the pick is ``skip`` plus the number of bounds
    that the draw exceeds.

    Inversion sampling picks the first index whose cumulative mass
    ``cum / den`` exceeds ``draw / 2**64``, the last one if none does.
    ``cum * 2**64 <= draw * den`` holds exactly when the draw exceeds
    ``(cum * 2**64 - 1) // den``, an integer below 2**64 (``_NEVER`` when
    ``cum == den``).  Leading indices of mass zero are passed by every
    draw and counted in ``skip``; the last index needs no bound.
    """
    den = math.lcm(*(m.denominator for m in masses))
    cum, bounds = 0, []
    for m in masses[:-1]:
        cum += int(m * den)
        bounds.append(((cum << 64) - 1) // den)
    skip = bounds.count(-1)
    return skip, bounds[skip:]


def _draw_words(rng: random.Random, k: int) -> np.ndarray:
    """The next ``k`` values of ``rng.getrandbits(64)``, from one call.

    ``getrandbits(64 * k)`` fills its result with the generator's 32-bit
    outputs from the least significant end, as ``k`` calls of
    ``getrandbits(64)`` would (each call's first output is its low half),
    so its little-endian bytes are those ``k`` draws in order.
    """
    return np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"),
                         dtype="<u8")


class _Sampler:
    """A game and a profile compiled into flat arrays for :func:`simulate`.

    Per node ``n``:

    - ``children[n * stride + i]``: its ``i``-th child, padded with ``n``
      itself, so that a terminal stays where it is.  The leading children
      of a chance node that have mass zero are dropped (see
      :func:`_thresholds`).
    - ``bounds[i][n]``: bound ``i`` of a chance node, ``_NEVER`` elsewhere.
    - ``column[n]``: the index of its information set in the strategy
      table, or the table's last column, which holds 0, at chance nodes
      and terminals.

    ``actions[k * columns + c]`` is the action of strategy ``k`` (the row
    mix's strategies first, then the column mix's) at information set
    ``c``.  Where the strategy is undefined it holds ``stride - 1``, a
    padding entry, so the play stays at that decision node.

    The children and bounds grow as nodes times the widest node; more than
    ``DEFAULT_CELL_BUDGET`` cells of them raise :class:`BudgetError` before
    any is allocated.
    """

    def __init__(self, g: ExtensiveGame, lam: BehavioralStrategy,
                 row_mix: MixedStrategy, col_mix: MixedStrategy):
        n = len(g)
        arity = max(len(kids) for kids in g.children)
        cells = n * (arity + 1 + max(arity - 1, 0))  # children and bounds
        if cells > DEFAULT_CELL_BUDGET:
            raise BudgetError("sampler cell", DEFAULT_CELL_BUDGET, cells)
        self.stride = arity + 1
        self.owner = np.array(g.owner, dtype=np.int8)
        self.is_univ = self.owner == UNIV
        self.is_chance = self.owner == NATURE
        children = np.repeat(np.arange(n)[:, None], self.stride, axis=1)
        self.bounds = np.full((max(arity - 1, 0), n), _NEVER, dtype=np.uint64)
        depth, chance_moves = [0] * n, [0] * n
        for node in range(n):
            kids = g.children[node]
            if g.owner[node] == NATURE:
                skip, bounds = _thresholds(lam.distribution(node))
                kids = kids[skip:]
                self.bounds[:len(bounds), node] = bounds
            children[node, :len(kids)] = kids
            for kid in kids:
                depth[kid] = depth[node] + 1
                chance_moves[kid] = chance_moves[node] + (g.owner[node] == NATURE)
        self.children = children.ravel()
        self.levels = max(depth)
        # a play reads its row pick, its column pick and one word per
        # chance move
        self.words_per_play = 2 + max(chance_moves)
        self.columns = 1 + max(len(g.information_partition(EXIST)),
                               len(g.information_partition(UNIV)))
        self.column = np.where(self.is_univ | (self.owner == EXIST),
                               np.array(g.infoset), self.columns - 1)
        strategies = row_mix.support + col_mix.support
        actions = np.full((len(strategies), self.columns), arity, dtype=np.intp)
        actions[:, -1] = 0
        for k, (strategy, _) in enumerate(strategies):
            for index, act in strategy.actions:
                actions[k, index] = act
        self.actions = actions.ravel()
        # a mix holds no zero mass, so its first strategy is never skipped
        _, row_bounds = _thresholds(tuple(w for _, w in row_mix))
        _, col_bounds = _thresholds(tuple(w for _, w in col_mix))
        self.row_bounds = np.array(row_bounds, dtype=np.uint64)
        self.col_bounds = np.array(col_bounds, dtype=np.uint64)
        self.n_rows = len(row_mix.support)

    def walk(self, words: np.ndarray, starts: int):
        """Play from each of the first ``starts`` word positions at once.

        A play from position ``p`` picks its row strategy with word ``p``,
        its column strategy with word ``p + 1``, and each chance move with
        the next unread word.  Returns each start's final node (not a
        terminal when a strategy was undefined on the way) and the number
        of words it read; ``words`` must hold ``starts + words_per_play``
        words.
        Every step gathers from 1-d arrays, which numpy does several times
        faster than from rows of 2-d ones.
        """
        row = self.columns * np.searchsorted(self.row_bounds, words[:starts])
        col = self.columns * (
            self.n_rows + np.searchsorted(self.col_bounds, words[1:starts + 1]))
        node = np.zeros(starts, dtype=np.intp)
        pos = np.arange(2, starts + 2)
        for _ in range(self.levels):
            draw = words[pos]
            act = self.actions[np.where(self.is_univ[node], col, row)
                               + self.column[node]]
            for bounds in self.bounds:
                act += draw > bounds[node]
            pos += self.is_chance[node]
            node = self.children[node * self.stride + act]
        return node, pos - np.arange(starts)


def simulate(g: ExtensiveGame, lam: BehavioralStrategy,
             row_mix: MixedStrategy, col_mix: MixedStrategy,
             plays: int, seed: int,
             events: dict[str, EventPredicate] | None = None) -> SimulationReport:
    """Monte Carlo cross-check of a profile's win probability.

    One sequential stream of ``getrandbits(64)`` draws from a
    Mersenne-Twister generator (``random.Random(seed)``); per play the
    draws are: row strategy, column strategy, then the chance moves
    reached along the play, in play order, each picked by exact integer
    inversion (:func:`_thresholds`).  Bit-for-bit reproducible for a fixed
    (game, profile, plays, seed).

    The draws are taken in bulk (:func:`_draw_words`), and they are
    identical to per-play draws in that order.  Each block of
    ``_SAMPLE_BLOCK_STARTS`` word positions is walked down the compiled
    game (:class:`_Sampler`) as if every position started a play; the plays
    are then the chain of starts from the first, each beginning where the
    last one's words end, and the unread words carry over to the next
    block, so memory does not grow with ``plays``.  ``numpy.random`` is
    deliberately not imported: the stdlib generator already gives these
    draws, and importing that module alone adds about 6 MB to the resident
    memory of a process (Python 3.11, numpy 2.4).
    """
    if plays < 1:
        raise GameError("plays must be at least 1")
    sampler = _Sampler(g, lam, row_mix, col_mix)
    rng = random.Random(seed)
    visits = np.zeros(len(g), dtype=np.int64)
    words = np.empty(0, dtype=np.uint64)
    done = 0
    while done < plays:
        # the plays left read at most this many words
        starts = min(_SAMPLE_BLOCK_STARTS, (plays - done) * sampler.words_per_play)
        missing = starts + sampler.words_per_play - len(words)
        if missing > 0:
            words = np.concatenate((words, _draw_words(rng, missing)))
        ends, used = sampler.walk(words, starts)
        used, chain, p = used.tolist(), [], 0
        while p < starts:
            chain.append(p)
            p += used[p]
        reached = ends[chain[:plays - done]]
        if (sampler.owner[reached] != TERMINAL).any():
            raise GameError("profile strategy undefined on a reached set")
        visits += np.bincount(reached, minlength=len(g))
        done += len(reached)
        words = words[p:]
    visited = {int(t): int(visits[t]) for t in np.flatnonzero(visits)}
    won = {t: g.winner_of[t] == EXIST for t in visited}
    wins = sum(count for t, count in visited.items() if won[t])
    event_counts = {}
    for name, event in (events or {}).items():
        hit = [t for t in visited if event.holds(g, t)]
        event_counts[name] = (sum(visited[t] for t in hit),
                              sum(visited[t] for t in hit if won[t]))
    return SimulationReport(plays, seed, wins, Fraction(wins, plays), event_counts)
