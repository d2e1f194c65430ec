"""A reference for the orbit kernel weyl._survivors: the same reverse
search, written the plain way.  Every node scans its labels for its first
descent and tests every candidate letter (a positive label, and every label
of the child before the letter positive), where the package reads the first
descent off the path and tests only the Dynkin neighbours after it.  Tests
compare the two state by state."""

from itertools import chain


def reference_survivors(rs, tracked, tests):
    """What weyl._survivors returns, one list of mirror words per test."""
    mirrors = rs.simple_mirrors
    rows = rs.cartan_rows
    rank = rs.rank
    # each index's Dynkin neighbours after it; none after the root's `rank`
    later = [[j for j, _ in row if j > i] for i, row in enumerate(rows)] + [[]]
    # s_i on the tracked blocks: (where label i sits, row i moved there)
    offsets = [rank * (t + 1) for t in range(len(tracked))]
    moves = [[(o + i, [(o + j, a) for j, a in row]) for o in offsets]
             for i, row in enumerate(rows)]
    found = [[] for _ in tests]
    # a path is (letter index, parent path), None at the root
    stack = [((2,) * rank + tuple(chain.from_iterable(tracked)), None)]
    while stack:
        state, path = stack.pop()
        letters, p = [], path
        while p is not None:
            i, p = p
            letters.append(mirrors[i])
        for test, out in zip(tests, found):
            if test(state):
                out.append(letters)
        first = next((j for j in range(rank) if state[j] < 0), rank)
        for i in chain(range(first), later[first]):
            li = state[i]
            if li <= 0:
                continue
            child = list(state)
            for j, a in rows[i]:
                child[j] -= li * a
            if i > first and min(child[:i]) <= 0:
                continue
            for src, row in moves[i]:
                lt = state[src]
                if lt:
                    for j, a in row:
                        child[j] -= lt * a
            stack.append((tuple(child), (i, path)))
    return found
