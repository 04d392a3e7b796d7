"""Breadth-first orbits: the one search behind every group closure and H¹.

A finite group is the orbit of the identity under multiplication by its
generators, and a first cohomology set is a set of orbits of twisted
conjugation.  ``act(x, g)`` applies generator ``g`` to ``x``, and ``key``
maps an element to the hashable value that identifies it (by default the
element itself).  The module imports nothing from the package.
"""

from __future__ import annotations

from operator import itemgetter


def _itself(x):
    return x


def orbit(start, gens, act, key=None, limit=None, what="orbit exceeded its bound") -> dict:
    """The orbit of ``start`` under ``gens``, as a dict from key to element.

    The search is breadth-first, trying the generators in their given order,
    so the dict lists the elements in order of discovery, each the first to
    reach its key.  An orbit growing past ``limit`` raises
    ``ArithmeticError(what)``.
    """
    key = key or _itself
    found = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                k = key(y)
                if k not in found:
                    if limit is not None and len(found) >= limit:
                        raise ArithmeticError(what)
                    found[k] = y
                    nxt.append(y)
        frontier = nxt
    return found


def orbit_classes(xs, gens, act, key=None) -> list[tuple[object, int]]:
    """``(least element, size)`` of each orbit that meets ``xs``.

    ``xs`` must be sorted by key, so the first element of an orbit met in
    the scan is its least.  An action that leaves ``xs`` raises
    ``ArithmeticError``.
    """
    key = key or _itself
    members = {key(x) for x in xs}
    unseen = set(members)
    out = []
    for x in xs:
        if key(x) in unseen:
            reached = orbit(x, gens, act, key, len(members), "the action left the set")
            if not reached.keys() <= members:
                raise ArithmeticError("the action left the set")
            unseen -= reached.keys()
            out.append((x, len(reached)))
    return out


def regular_tables(rows, identity) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """``(mul, inv)`` of a group numbered 0..n-1 from its generators' rows.

    Entry x of the (left-regular) row of g is the number of g·x.  The row of
    g·x is the row of g after the row of x, so all rows are the orbit of the
    identity row, each keyed by its image of ``identity``: the element.
    Rows that do not generate the whole group raise ``ArithmeticError``.
    """
    n = len(rows[0])
    found = orbit(tuple(range(n)), rows, lambda r, p: itemgetter(*r)(p),
                  key=lambda r: r[identity])
    if len(found) != n:
        raise ArithmeticError("the rows generate %d of %d elements" % (len(found), n))
    mul = tuple(found[a] for a in range(n))
    return mul, tuple(row.index(identity) for row in mul)
