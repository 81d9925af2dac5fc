"""Slow references for the follow relation, for differential tests.

``follows`` is the follow relation of one strategy and ``follow_matrix``
the follow table of an enumeration, both read off ``own_histories``;
``follow_classes`` groups a follow table's equal rows, and ``grouped``
merges a payoff matrix's strategies that follow the same win terminals,
which keeps the matrices of unsettled games small.  ``from_rules`` builds
a reduced strategy from a rule.
"""

from __future__ import annotations

import numpy as np

from ifgames import PayoffMatrix, ReducedStrategy, StrategyList
from ifgames.strategy import own_histories, own_reachable_closure


def follows(node, sigma) -> bool:
    """Does the owner of ``sigma`` follow it along the history ``node``:
    does ``sigma`` take every action its owner took on the way there?"""
    actions = dict(sigma.actions)
    own = own_histories(sigma.game, sigma.player)[node]
    return all(actions.get(k) == act for k, act in own)


def follow_matrix(strats, nodes):
    """Reference for the follow tables: boolean (strategies x nodes), does
    the strategy follow the history, read off the enumeration table."""
    columns = np.ascontiguousarray(strats.table.T)
    own = own_histories(strats.game, strats.player)
    out = np.ones((len(nodes), len(strats)), dtype=bool)
    for j, node in enumerate(nodes):
        for ci, ai in own[node]:
            out[j] &= columns[ci] == ai
    return out.T


def follow_classes(follow):
    """Reference for the follow classes: the first strategy of each class
    (strategies that follow the same nodes), in enumeration order.

    Each strategy's follow row is packed into 64-bit words, eight nodes to a
    byte; a stable sort by those words lists each class in enumeration
    order, so the first entry of each run of equal words is the class's
    first member.
    """
    by_node = follow.T.view(np.uint8)  # (nodes, strategies), 0 or 1
    packed = np.zeros((follow.shape[0], 8 * (len(by_node) // 64 + 1)),
                      dtype=np.uint8)
    shifts = np.arange(8, dtype=np.uint8)[:, None]
    for t in range(0, len(by_node), 8):
        group = by_node[t:t + 8]
        packed[:, t // 8] = np.bitwise_or.reduce(group << shifts[:len(group)])
    words = packed.view(np.uint64).T
    order = np.lexsort(words)
    ordered = words[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return np.sort(order[first])


def grouped(m: PayoffMatrix) -> PayoffMatrix:
    """``m`` with the strategies of each side that follow the same win
    terminals, and so have equal payoffs, merged into the first of them."""
    def keep(strats, first):
        return StrategyList(strats.game, strats.player, strats.table[first])

    rows, cols = follow_classes(m.f_row), follow_classes(m.f_col)
    return PayoffMatrix(keep(m.rows, rows), keep(m.cols, cols),
                        m.f_row[rows], m.f_col[cols], m.weights, m.den)


def from_rules(game, player, choose) -> ReducedStrategy:
    """The reduced strategy of ``player`` that takes the action labelled
    ``choose(info)`` at each set its earlier choices leave reachable."""
    return ReducedStrategy(game, player, own_reachable_closure(
        game, player, lambda info: info.actions.index(choose(info))))
