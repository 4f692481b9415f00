"""The exact inverse of an integer matrix in Fractions, as the tests' oracle.

The program inverts integer matrices as an adjugate and a determinant
(`rootdata._adjugate`); this is the textbook Gauss-Jordan route over the
rationals that the tests compare it with.
"""

from fractions import Fraction


def frac_inverse(mat):
    """Exact inverse of a nonsingular integer matrix, as Fractions."""
    r = len(mat)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(r)]
            for i, row in enumerate(mat)]
    for col in range(r):
        pivot = next(i for i in range(col, r) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(r):
            if i != col and work[i][col]:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[col])]
    return [row[r:] for row in work]
