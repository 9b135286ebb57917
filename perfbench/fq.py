"""The benchmark's own arithmetic over F_p: forms, coordinate changes,
lines of P^N, and an independent oracle for the lines on a variety.

Nothing here imports cilines. Forms are dicts from exponent vectors over
(S, T, Z1, ..., Z{N-1}) to coefficients in [1, p); a line is its reduced
row echelon 2 x (N+1) representative, the same canonical form the
program prints.
"""

from __future__ import annotations

import itertools
import random

Form = dict  # exponent tuple -> nonzero coefficient mod p
Line = tuple  # (row1, row2), each a tuple of N+1 ints mod p


def gaussian_binomial_2(m: int, q: int) -> int:
    """[m choose 2]_q: the number of 2-dimensional subspaces of F_q^m,
    i.e. of lines in P^{m-1}(F_q)."""
    return (q**m - 1) * (q ** (m - 1) - 1) // ((q**2 - 1) * (q - 1))


def degree(form: Form) -> int:
    return sum(next(iter(form)))


def diagonal(weights: list[int], d: int, p: int) -> Form:
    """sum_i w_i x_i^d over the N+1 coordinates."""
    n1 = len(weights)
    return {
        tuple(d if j == i else 0 for j in range(n1)): w % p
        for i, w in enumerate(weights)
        if w % p
    }


def fermat(n: int, d: int, p: int) -> Form:
    """S^d + T^d + Z1^d + ... + Z{N-1}^d."""
    return diagonal([1] * (n + 1), d, p)


def _mul(f: Form, g: Form, p: int) -> Form:
    out: Form = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def substitute_linear(form: Form, matrix: list[list[int]], p: int) -> Form:
    """The form composed with x = A y: x_i -> sum_j A[i][j] y_j."""
    n1 = len(matrix)
    linear = [
        {tuple(1 if k == j else 0 for k in range(n1)): a % p for j, a in enumerate(row) if a % p}
        for row in matrix
    ]
    out: Form = {}
    for e, c in form.items():
        term = {(0,) * n1: c % p}
        for i, x in enumerate(e):
            for _ in range(x):
                term = _mul(term, linear[i], p)
        for k, v in term.items():
            out[k] = (out.get(k, 0) + v) % p
    return {e: c for e, c in out.items() if c}


def _det_mod(matrix: list[list[int]], p: int) -> int:
    m = [list(r) for r in matrix]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, n):
            f = m[i][c] * inv % p
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[c])]
    return det % p


def random_gl(rng: random.Random, size: int, p: int) -> list[list[int]]:
    """A uniformly random invertible size x size matrix over F_p."""
    while True:
        m = [[rng.randrange(p) for _ in range(size)] for _ in range(size)]
        if _det_mod(m, p):
            return m


def transformed(forms: list[Form], n: int, p: int, rng: random.Random) -> list[Form]:
    """The forms after one random change of coordinates in GL_{N+1}(F_p)."""
    a = random_gl(rng, n + 1, p)
    return [substitute_linear(f, a, p) for f in forms]


# -- points and lines ---------------------------------------------------------


def evaluate(form: Form, point: tuple[int, ...], p: int) -> int:
    acc = 0
    for e, c in form.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * pow(x, k, p) % p
        acc += term
    return acc % p


def projective_points(n: int, p: int):
    """Every point of P^n(F_p), first nonzero coordinate equal to 1."""
    for lead in range(n + 1):
        for tail in itertools.product(range(p), repeat=n - lead):
            yield (0,) * lead + (1,) + tail


def pivots(line: Line) -> tuple[int, int]:
    return line[0].index(1), line[1].index(1)


def line_points(line: Line, p: int):
    """The p+1 points of a line, each already normalized: r1 + t r2 leads
    with the 1 in the first pivot column, and r2 leads with its own."""
    r1, r2 = line
    yield r2
    for t in range(p):
        yield tuple((a + t * b) % p for a, b in zip(r1, r2))


def _restrict(form: Form, line: Line, p: int) -> list[int]:
    """Coefficients of form(s r1 + t r2) against s^d, s^{d-1} t, ..., t^d."""
    d = degree(form)
    r1, r2 = line
    out = [0] * (d + 1)
    for e, c in form.items():
        poly = [c]
        for a, b, k in zip(r1, r2, e):
            for _ in range(k):
                nxt = [0] * (len(poly) + 1)
                for i, v in enumerate(poly):
                    nxt[i] = (nxt[i] + v * a) % p
                    nxt[i + 1] = (nxt[i + 1] + v * b) % p
                poly = nxt
        for i, v in enumerate(poly):
            out[i] = (out[i] + v) % p
    return out


def lines_on(forms: list[Form], n: int, p: int) -> list[Line]:
    """Every F_p-line of P^n on the variety of the forms, canonically sorted.

    A line lies on X only if all its p+1 points do, which a table of the
    points of X decides by lookups. Both rows of a line's reduced row
    echelon representative are among its points, so the candidates are
    the pairs (r1, r2) of points of X in echelon position: r1 leads before
    r2 and is 0 where r2 leads. When p >= max d the point test is also
    enough, since a form of degree d vanishing at d+1 points of a line
    vanishes on it; below that, each surviving line is confirmed by
    restricting every form to it.
    """
    on_x = {pt for pt in projective_points(n, p) if all(evaluate(f, pt, p) == 0 for f in forms)}
    exact = p >= max(degree(f) for f in forms)
    by_lead: dict[int, list] = {}
    for pt in on_x:
        by_lead.setdefault(pt.index(1), []).append(pt)
    found = []
    for j2, seconds in by_lead.items():
        firsts = [r1 for j1, pts in by_lead.items() if j1 < j2 for r1 in pts if r1[j2] == 0]
        for r2 in seconds:
            for r1 in firsts:
                line = (r1, r2)
                if not all(pt in on_x for pt in line_points(line, p)):
                    continue
                if exact or all(not any(_restrict(f, line, p)) for f in forms):
                    found.append(line)
    found.sort(key=lambda ln: (pivots(ln), ln))
    return found


def to_chart(forms: list[Form], line: Line) -> tuple[list[Form], tuple[int, ...], tuple[int, ...]]:
    """Permute coordinates so the line's pivot columns become S and T.

    Returns the permuted forms and the chart rows a, b of the moved line
    (new slot k reads old slot perm[k], perm = pivots then the rest).
    """
    j1, j2 = pivots(line)
    n1 = len(line[0])
    perm = [j1, j2] + [c for c in range(n1) if c not in (j1, j2)]
    moved = [{tuple(e[perm[k]] for k in range(n1)): c for e, c in f.items()} for f in forms]
    a = tuple(line[0][perm[k]] for k in range(2, n1))
    b = tuple(line[1][perm[k]] for k in range(2, n1))
    return moved, a, b


# -- text in the program's problem-file grammar ------------------------------------


def variable_names(n: int) -> tuple[str, ...]:
    return ("S", "T") + tuple(f"Z{j}" for j in range(1, n))


def form_text(form: Form, n: int) -> str:
    names = variable_names(n)
    pieces = []
    for e in sorted(form, reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)
        c = form[e]
        pieces.append(mono if c == 1 else f"{c}*{mono}")
    return " + ".join(pieces)


def problem_text(
    p: int,
    n: int,
    forms: list[Form],
    chart: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> str:
    """A problem file; with chart rows (a, b) it also names the line and,
    as the curve, its parameterization (s, t, a_1 s + b_1 t, ...)."""
    lines = [
        f"field: F:{p}",
        f"N: {n}",
        "degrees: " + ",".join(str(degree(f)) for f in forms),
    ]
    lines += [f"form: {form_text(f, n)}" for f in forms]
    if chart is not None:
        a, b = chart
        lines.append(f"line: {', '.join(map(str, a))} | {', '.join(map(str, b))}")
        comps = ["s", "t"] + [_linear_text(x, y) for x, y in zip(a, b)]
        lines.append("curve: " + " ; ".join(comps))
    return "\n".join(lines) + "\n"


def _linear_text(a: int, b: int) -> str:
    parts = [f"{c}*{v}" for c, v in ((a, "s"), (b, "t")) if c]
    return " + ".join(parts) if parts else "0"
