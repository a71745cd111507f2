"""Reference values in stdlib ``decimal`` at 50 significant digits.

Each function takes the float inputs the program works from and evaluates
them in Decimal arithmetic with guard digits, so that its result is the
exact value for those floats, correct to ``DIGITS`` significant digits.
The tests compare the program's floats with these values; ``mpmath`` is not
used.
"""
from decimal import Decimal, localcontext

DIGITS = 50
_PREC = DIGITS + 20
_MAX_SWEEPS = 60


def binary_information(p):
    """1 + p log2 p + (1 - p) log2 (1 - p) for a Decimal (or float) p in
    [0, 1], with 0 log 0 = 0."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        p = Decimal(p)
        total = Decimal(0)
        for x in (p, 1 - p):
            if x > 0:
                total += x * x.ln()
        result = 1 + total / Decimal(2).ln()
        ctx.prec = DIGITS
        return +result


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _dot(row, vec):
    re = im = Decimal(0)
    for a, b in zip(row, vec):
        x, y = _mul(a, b)
        re += x
        im += y
    return re, im


def _jacobi_eigenvalues(a):
    """Eigenvalues of a real symmetric matrix (a list of rows of Decimals,
    overwritten) by cyclic Jacobi rotations.

    They stop when no off-diagonal entry a_pq moves an eigenvalue at DIGITS
    digits: it moves them by at most |a_pq|, and by at most
    a_pq^2 / |a_pp - a_qq| (exact bounds for a 2x2 block).  Entries near
    the square root of the working precision can linger between
    well-separated diagonal entries, so a bound on |a_pq| alone is not met.
    """
    n = len(a)
    tol = Decimal(10) ** -(DIGITS + 10)
    for _ in range(_MAX_SWEEPS):
        if all(abs(a[p][q]) <= tol or a[p][q] ** 2 <= tol * abs(a[p][p] - a[q][q])
               for p in range(n) for q in range(p + 1, n)):
            return [a[i][i] for i in range(n)]
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2 * a[p][q])
                t = 1 / (abs(theta) + (theta * theta + 1).sqrt())
                t = t if theta >= 0 else -t
                c = 1 / (t * t + 1).sqrt()
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
    raise ArithmeticError("Jacobi rotations did not converge")


def sifted_helstrom_error(isometry):
    """The eavesdropper's minimum error p_e = (1 - ||M||_1)/2 of the sifted
    cloning attack, for one machine's float isometry (rows: the output
    register with the receiver's clone as the most significant qubit;
    columns: a qubit, or the Dicke coordinates of a symmetric pair).

    The announced states +x, +y, the excluding outcomes -x, -y and every
    product are exact in Decimal.  M = sum_k,o s_k c_k e_ko e_ko^H with
    s = (+1, -1), c_k = 1 / (2 sum_o ||e_ko||^2) and e_ko = <-o|_B V|k>.
    ||M||_1 is the sum of the absolute eigenvalues of M, read from its real
    symmetric embedding [[Re M, -Im M], [Im M, Re M]] (each eigenvalue
    twice) by Jacobi rotations; the symmetry that pairs the spectrum of M
    is not assumed.
    """
    with localcontext() as ctx:
        ctx.prec = _PREC
        v = [[(Decimal(z.real), Decimal(z.imag)) for z in row] for row in isometry.tolist()]
        half = len(v) // 2
        zero, r = Decimal(0), 1 / Decimal(2).sqrt()
        sent = [((r, zero), (r, zero)), ((r, zero), (zero, r))]  # +x, +y
        excluded = [((r, zero), (-r, zero)), ((r, zero), (zero, -r))]  # -x, -y
        if len(v[0]) == 3:  # (a^2, sqrt 2 ab, b^2)
            sent = [(_mul(a, a), _mul((2 * r, zero), _mul(a, b)), _mul(b, b)) for a, b in sent]
        amplitudes = []
        for k, psi in enumerate(sent):
            out = [_dot(row, psi) for row in v]
            es = []
            for b0, b1 in excluded:  # <b| = conj(b0) <0| + conj(b1) <1|
                b0, b1 = (b0[0], -b0[1]), (b1[0], -b1[1])
                es.append([tuple(x + y for x, y in zip(_mul(b0, top), _mul(b1, bottom)))
                           for top, bottom in zip(out[:half], out[half:])])
            accepted = sum(x * x + y * y for e in es for x, y in e)
            weight = (1 if k == 0 else -1) / (2 * accepted)
            amplitudes += [(weight, e) for e in es]
        d = half
        re = [[zero] * d for _ in range(d)]
        im = [[zero] * d for _ in range(d)]
        for weight, e in amplitudes:
            for i in range(d):
                for j in range(d):
                    x, y = _mul(e[i], (e[j][0], -e[j][1]))
                    re[i][j] += weight * x
                    im[i][j] += weight * y
        embedding = ([re[i] + [-x for x in im[i]] for i in range(d)]
                     + [im[i] + re[i] for i in range(d)])
        norm = sum(abs(x) for x in _jacobi_eigenvalues(embedding)) / 2
        p_e = (1 - norm) / 2
        ctx.prec = DIGITS
        return +p_e
