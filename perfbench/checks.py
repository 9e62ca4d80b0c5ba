"""Answer checks that do not trust the program under test.

Every check reads only the adjacency bitsets (``g.n`` and ``g.adj``) and the
certificate, and raises ``CheckFailure`` instead of using ``assert``, so the
checks stay active under ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailure(Exception):
    """An answer was returned but is wrong or uncertified."""


def _members(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _edges(g):
    for u in range(g.n):
        for v in _members(g.adj[u] >> (u + 1)):
            yield u, u + 1 + v


def check_hom(g, h, mapping) -> None:
    """One edge scan: every edge of g lands on an edge of h."""
    if mapping is None or len(mapping) != g.n:
        raise CheckFailure("homomorphism has the wrong length")
    if any(not 0 <= x < h.n for x in mapping):
        raise CheckFailure("homomorphism maps outside the target")
    for u, v in _edges(g):
        if not h.adj[mapping[u]] >> mapping[v] & 1:
            raise CheckFailure(f"edge {u}-{v} maps to the non-edge {mapping[u]}-{mapping[v]}")


def check_colouring(g, colours, k: int) -> None:
    """One edge scan: colours lie in 1..k and no edge is monochromatic."""
    if colours is None or len(colours) != g.n:
        raise CheckFailure("colouring has the wrong length")
    if any(not 1 <= c <= k for c in colours):
        raise CheckFailure(f"colouring uses a colour outside 1..{k}")
    for u, v in _edges(g):
        if colours[u] == colours[v]:
            raise CheckFailure(f"edge {u}-{v} is monochromatic")


def _weighted_degrees(g, weights) -> list[Fraction]:
    return [sum((weights[u] for u in _members(g.adj[v])), Fraction(0)) for v in range(g.n)]


def check_tstar(g, result, expected: Fraction) -> None:
    """t* equals ``expected`` and both certificates prove it.

    The primal weighting attains t*; the dual distribution gives every vertex
    neighbourhood mass at most t*, which bounds every weighting's minimum
    degree by t* (weak duality).
    """
    t = result.optimum
    if t != expected:
        raise CheckFailure(f"t* = {t}, expected {expected}")
    for name, vector in (("weighting", result.weights), ("dual", result.dual)):
        if len(vector) != g.n or sum(vector) != 1 or any(x < 0 for x in vector):
            raise CheckFailure(f"{name} is not a distribution on the vertices")
    if min(_weighted_degrees(g, result.weights)) != t:
        raise CheckFailure("the weighting does not attain t*")
    if max(_weighted_degrees(g, result.dual)) > t:
        raise CheckFailure("the dual does not bound t* from above")


def isomorphic(g, h) -> bool:
    """Backtracking isomorphism test for small graphs, by degree classes."""
    if g.n != h.n:
        return False
    gdeg = [row.bit_count() for row in g.adj]
    hdeg = [row.bit_count() for row in h.adj]
    if sorted(gdeg) != sorted(hdeg):
        return False
    image = [-1] * g.n

    def place(v: int, used: int) -> bool:
        if v == g.n:
            return True
        for x in range(h.n):
            if used >> x & 1 or hdeg[x] != gdeg[v]:
                continue
            if all(
                (g.adj[v] >> u & 1) == (h.adj[x] >> image[u] & 1) for u in range(v)
            ):
                image[v] = x
                if place(v + 1, used | 1 << x):
                    return True
        return False

    return place(0, 0)


def check_lines(found: list[str], expected: list[str]) -> None:
    """Search output, as compact lines, equals the frozen golden exactly."""
    missing = [line for line in expected if line not in found]
    if missing:
        raise CheckFailure(f"{len(missing)} golden graph(s) missing, first: {missing[0]}")
    if found != expected:
        raise CheckFailure(f"output differs from the golden: {found}")


class Ops:
    """Operation accounting: a wrong answer or an exception fails the operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[dict] = []

    def run(self, item: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except CheckFailure as exc:
            self._fail(item, "wrong", str(exc))
            self.wrong += 1
        except Exception as exc:  # the program raised: record it and go on
            self._fail(item, type(exc).__name__, str(exc)[:200])

    def _fail(self, item: str, kind: str, detail: str) -> None:
        self.failed += 1
        self.failures.append({"item": item, "kind": kind, "detail": detail})


class _Graph:
    def __init__(self, n, edges):
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u


class _Weighting:
    def __init__(self, optimum, weights, dual):
        self.optimum, self.weights, self.dual = optimum, weights, dual


def self_test() -> list[str]:
    """Feed each checker a corrupted answer; return the ones not counted as failed."""
    k3 = _Graph(3, [(0, 1), (0, 2), (1, 2)])
    c5 = _Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    third = (Fraction(1, 3),) * 3
    bad_weights = (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    golden = ["n=3 a", "n=7 b"]
    corruptions = {
        "wrong t*": lambda: check_tstar(k3, _Weighting(Fraction(1, 2), third, third), Fraction(2, 3)),
        "uncertified t*": lambda: check_tstar(
            k3, _Weighting(Fraction(2, 3), bad_weights, third), Fraction(2, 3)
        ),
        "non-homomorphism": lambda: check_hom(c5, _Graph(2, [(0, 1)]), (0, 1, 0, 1, 0)),
        "improper colouring": lambda: check_colouring(k3, (1, 1, 2), 3),
        "missing found-graph": lambda: check_lines(golden[:1], golden),
    }
    missed = []
    for name, corrupt in corruptions.items():
        ops = Ops()
        ops.run(name, corrupt)
        if ops.wrong != 1 or ops.failed != 1:
            missed.append(name)
    return missed
