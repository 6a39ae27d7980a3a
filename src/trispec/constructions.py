"""Named triangle families with known spectra, and budget decompositions.

The central family here is the join construction: a clique on c vertices
joined to b pairwise non-adjacent apex vertices.  Its triangle Laplacian
spectrum is known in closed form, and explicit eigenvectors for both
positive eigenvalues admit exact rational residual checks; only those
checks import `fractions`.

The budget decomposition writes a triangle count N as a sum of three join
family sizes with clique sizes a, a+1, a+2; it exists for every
N >= 2a^3 + 2a^2 + 1 and powers the cube-root growth witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm
from operator import mul

import numpy as np

from .families import TriangleFamily, disjoint_union, sign_triangle_edge


def complete_family(n: int) -> TriangleFamily:
    """All triangles on vertex labels 1..n."""
    if n < 3:
        raise ValueError(f"a complete family needs n >= 3, got {n}")
    # Combinations of an ascending range: canonical and already sorted.
    return TriangleFamily._canonical(tuple(combinations(range(1, n + 1), 3)))


@dataclass(frozen=True)
class GcbSpec:
    """Parameters of the clique-plus-apexes join family."""

    c: int
    b: int

    def __post_init__(self):
        if self.c < 3:
            raise ValueError(f"clique size must be at least 3, got c={self.c}")
        if self.b < 1:
            raise ValueError(f"apex count must be at least 1, got b={self.b}")

    @property
    def triangle_count(self) -> int:
        return comb(self.c, 3) + self.b * comb(self.c, 2)


def gcb_family(spec: GcbSpec) -> TriangleFamily:
    """Triangles of K_c joined to b independent apexes c+1, ..., c+b."""
    c, b = spec.c, spec.b
    tris = list(combinations(range(1, c + 1), 3))
    for apex in range(c + 1, c + b + 1):
        tris.extend((i, j, apex) for i, j in combinations(range(1, c + 1), 2))
    # Each triangle ascends and none repeats; only their order needs sorting.
    return TriangleFamily._canonical(tuple(sorted(tris)))


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """(eigenvalue, multiplicity) rows, ascending, zero-multiplicity rows omitted."""

    rows: tuple[tuple[int, int], ...]

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.rows)

    def trace(self) -> int:
        return sum(v * m for v, m in self.rows)

    def expand(self) -> list[int]:
        return [v for v, m in self.rows for _ in range(m)]


def gcb_closed_form_spectrum(spec: GcbSpec) -> ClosedFormSpectrum:
    """Triangle-indexed Laplacian spectrum of the join family."""
    c, b = spec.c, spec.b
    rows = [
        (0, comb(c, 3) + (b - 1) * comb(c - 1, 2)),
        (c, (b - 1) * (c - 1)),
        (b + c, comb(c, 2)),
    ]
    return ClosedFormSpectrum(tuple((v, m) for v, m in rows if m > 0))


def gcb_lambda(spec: GcbSpec) -> int:
    """Spectral parameter of the join family: c+1 when b = 1, else c."""
    return spec.c + 1 if spec.b == 1 else spec.c


def eigvec_c(
    spec: GcbSpec, x: int, y: int, family: TriangleFamily | None = None
) -> tuple[Fraction, ...]:
    """Exact eigenvector of the triangle-indexed Laplacian for eigenvalue c.

    Defined for b >= 2, clique vertex 2 <= x <= c and apex c+1 <= y <= b+c-1;
    supported on the 2(c-1) triangles {i,x,y} and {i,x,b+c} with signs taken
    from the incidence of the pivot edge.  `family`, if given, must be
    `gcb_family(spec)`, which is otherwise built here.
    """
    from fractions import Fraction
    c, b = spec.c, spec.b
    if b < 2:
        raise ValueError("eigenvalue-c eigenvectors need at least two apexes (b >= 2)")
    if not 2 <= x <= c:
        raise ValueError(f"x must satisfy 2 <= x <= {c}, got {x}")
    if not c + 1 <= y <= b + c - 1:
        raise ValueError(f"y must satisfy {c + 1} <= y <= {b + c - 1}, got {y}")
    family = gcb_family(spec) if family is None else family
    index = {t: i for i, t in enumerate(family)}
    vec = [Fraction(0)] * len(family)
    last = b + c
    for i in range(1, c + 1):
        if i == x:
            continue
        ty = tuple(sorted((i, x, y)))
        vec[index[ty]] += sign_triangle_edge(ty, (x, y))
        tl = tuple(sorted((i, x, last)))
        vec[index[tl]] -= sign_triangle_edge(tl, (x, last))
    return tuple(vec)


def eigvec_bc(
    spec: GcbSpec, x: int, y: int, family: TriangleFamily | None = None
) -> tuple[Fraction, ...]:
    """Exact eigenvector of the edge-indexed up-Laplacian for eigenvalue b+c.

    Defined for clique vertices 1 <= x < y <= c; entries have common
    denominator b: the edge {x,y} gets 1 and each apex i contributes
    -1/b on {x,i} and +1/b on {y,i}.  `family`, if given, must be
    `gcb_family(spec)`, which is otherwise built here.
    """
    from fractions import Fraction
    c, b = spec.c, spec.b
    if not 1 <= x < y <= c:
        raise ValueError(f"need 1 <= x < y <= {c}, got ({x}, {y})")
    graph = (gcb_family(spec) if family is None else family).support
    index = {e: i for i, e in enumerate(graph.edges)}
    vec = [Fraction(0)] * len(graph.edges)
    vec[index[(x, y)]] = Fraction(1)
    for i in range(c + 1, b + c + 1):
        vec[index[(x, i)]] -= Fraction(1, b)
        vec[index[(y, i)]] += Fraction(1, b)
    return tuple(vec)


def _clear_denominators(vec) -> list[int]:
    """Scale a rational vector by the lcm of its denominators to integers."""
    from fractions import Fraction
    fracs = [Fraction(v) for v in vec]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs]


def eigvec_residual(matrix: np.ndarray, vec, eigenvalue: int) -> bool:
    """True iff matrix @ vec == eigenvalue * vec exactly, in integer arithmetic.

    Denominators are cleared first, so the comparison is between integers:
    each row of the integer matrix is read as Python ints (`tolist`), and
    its product with the cleared vector is one sum of Python-int products,
    so no entry is ever rounded.
    """
    ints = _clear_denominators(vec)
    prod = [sum(map(mul, row.tolist(), ints)) for row in np.asarray(matrix)]
    return prod == [eigenvalue * v for v in ints]


def eigvec_matrix(vectors) -> np.ndarray:
    """Stack rational vectors into an integer matrix by clearing denominators row-wise."""
    return np.array([_clear_denominators(vec) for vec in vectors], dtype=object)


@dataclass(frozen=True)
class BudgetDecomposition:
    """N = sum_i comb(a+i, 3) + (x, y, z)_i * comb(a+i, 2), with x, y, z >= 1."""

    a: int
    x: int
    y: int
    z: int
    n: int
    below_guarantee: bool = False

    def verify(self) -> bool:
        a, parts = self.a, (self.x, self.y, self.z)
        total = sum(comb(a + i, 3) + parts[i] * comb(a + i, 2) for i in range(3))
        return total == self.n and min(parts) >= 1

    def family(self) -> TriangleFamily:
        out = TriangleFamily(())
        for i, count in enumerate((self.x, self.y, self.z)):
            out = disjoint_union(out, gcb_family(GcbSpec(self.a + i, count)))
        return out


def frobenius_threshold(a: int) -> int:
    return 2 * a**3 + 2 * a**2 + 1


def frobenius_decompose(a: int, n: int) -> BudgetDecomposition:
    """Write n as a triple of join-family sizes with clique sizes a, a+1, a+2.

    Guaranteed for n >= 2a^3 + 2a^2 + 1.  After reserving one apex per
    clique size, the remainder lands in an interval where the two smaller
    coin values a and 2a+1 are coprime and past their Frobenius number
    2a(a-1) - 1, so a deterministic scan (smallest z, then smallest y)
    always succeeds.  Below the guarantee a bounded brute-force scan is
    attempted and the result flagged.
    """
    if a < 3:
        raise ValueError(f"clique size must be at least 3, got a={a}")
    base = sum(comb(a + i, 3) + comb(a + i, 2) for i in range(3))
    if n < frobenius_threshold(a):
        found = _brute_force_decompose(a, n)
        if found is None:
            raise ValueError(
                f"N={n} is below the Frobenius threshold {frobenius_threshold(a)} "
                f"for a={a} and admits no decomposition"
            )
        x, y, z = found
        return BudgetDecomposition(a=a, x=x, y=y, z=z, n=n, below_guarantee=True)

    remainder = n - base
    ca = comb(a, 2)
    # Valid q form the range [ceil(remainder/(ca+a)), floor((remainder-2a(a-1))/ca)],
    # nonempty past the threshold because consecutive intervals overlap there.
    q = -(-remainder // (ca + a))
    if q * ca + 2 * a * (a - 1) > remainder:
        raise AssertionError(f"coin interval missed remainder for a={a}, N={n}")
    r = remainder - q * ca
    # r = y*a + z*(2a+1) with smallest z, then smallest y; both coins are
    # coprime and r sits past their Frobenius number 2a(a-1) - 1.
    z = r % a
    y = (r - z * (2 * a + 1)) // a
    x = q - y - z
    dec = BudgetDecomposition(a=a, x=x + 1, y=y + 1, z=z + 1, n=n)
    if not dec.verify():
        raise AssertionError(f"decomposition identity failed for a={a}, N={n}")
    return dec


def _brute_force_decompose(a: int, n: int):
    c0, c1, c2 = comb(a, 2), comb(a + 1, 2), comb(a + 2, 2)
    base = comb(a, 3) + comb(a + 1, 3) + comb(a + 2, 3)
    z_top = (n - base - c0 - c1) // c2
    for z in range(1, z_top + 1):
        y_top = (n - base - c0 - z * c2) // c1
        for y in range(1, y_top + 1):
            rest = n - base - y * c1 - z * c2
            if rest >= c0 and rest % c0 == 0:
                return (rest // c0, y, z)
    return None


@dataclass(frozen=True)
class GrowthWitness:
    family: TriangleFamily
    a: int
    decomposition: BudgetDecomposition


def phi_lower_bound_family(t: int) -> GrowthWitness:
    """A t-triangle family whose spectral parameter is at least floor((t/3)^(1/3)).

    Valid for t >= 81.  The clique size a is the exact integer cube root of
    t/3 (largest a with 3a^3 <= t); the decomposition always exists there
    because 2a^3 + 2a^2 + 1 < 3a^3 once a >= 3.
    """
    if t < 81:
        raise ValueError(f"the cube-root growth witness needs t >= 81, got {t}")
    a = 3
    while 3 * (a + 1) ** 3 <= t:
        a += 1
    dec = frobenius_decompose(a, t)
    family = dec.family()
    if len(family) != t:
        raise AssertionError(f"witness family has {len(family)} triangles, wanted {t}")
    return GrowthWitness(family=family, a=a, decomposition=dec)


def parse_construction(name: str) -> TriangleFamily:
    """Resolve a construction name: kn:n, gcb:c,b, frob:a,N, or phi-lb:t."""
    head, sep, tail = name.partition(":")
    if not sep:
        raise ValueError(f"not a construction name: {name!r}")
    try:
        args = [int(p) for p in tail.split(",")] if tail else []
    except ValueError:
        raise ValueError(f"non-integer arguments in construction {name!r}")
    if head == "kn" and len(args) == 1:
        return complete_family(args[0])
    if head == "gcb" and len(args) == 2:
        return gcb_family(GcbSpec(args[0], args[1]))
    if head == "frob" and len(args) == 2:
        return frobenius_decompose(args[0], args[1]).family()
    if head == "phi-lb" and len(args) == 1:
        return phi_lower_bound_family(args[0]).family
    raise ValueError(
        f"unknown construction {name!r}; expected kn:n, gcb:c,b, frob:a,N or phi-lb:t"
    )
