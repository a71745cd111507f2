"""Reference values in stdlib ``decimal``.

Each function takes the float inputs the program works from and evaluates
them in Decimal arithmetic, each at its own working precision: enough
digits to absorb the cancellation of the closed form it sums, as its
docstring states.  ``binary_information``, ``gap_information`` and
``sifted_helstrom_error`` round to ``DIGITS`` significant digits, and
``ng12_sifted`` returns its values so; the others return the Decimal at
their working precision.  The tests compare the program's floats with
these values; ``mpmath`` is not used.
"""
import functools
import itertools
from decimal import Decimal, localcontext

DIGITS = 50
_PREC = DIGITS + 20
_MAX_SWEEPS = 60
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


@functools.cache
def _ln2(prec):
    """ln 2 correctly rounded to ``prec`` digits, computed once per precision."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(2).ln()


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
        result = 1 + total / _ln2(ctx.prec)
        ctx.prec = DIGITS
        return +result


def gap_information(t):
    """1 - h(1/2 - t) = ((1 + x) ln(1 + x) + (1 - x) ln(1 - x)) / (2 ln 2),
    x = 2t, for a Decimal (or float) t in [0, 1/2].  The two products are
    about +-x and their sum about x^2, so the working precision grows by
    twice the decimal exponent of t: 370 digits at t = 1e-150."""
    with localcontext() as ctx:
        t = Decimal(t)
        ctx.prec = _PREC + (2 * -t.adjusted() if t else 0)
        x = 2 * t
        total = Decimal(0)
        for y in (1 + x, 1 - x):
            if y > 0:
                total += y * y.ln()
        result = total / (2 * _ln2(ctx.prec))
        ctx.prec = DIGITS
        return +result


def poisson_tails(mu):
    """(A, B, C, D) of ``photonics.poisson_tails`` from the closed forms at
    1200 digits: e^mu times each moment, over mu^2/2 or mu^3/6.  At
    mu = 5e-324 the forms cancel by mu^3 ~ 1e-971."""
    with localcontext() as ctx:
        ctx.prec = 1200
        m = Decimal(mu)
        e = m.exp()
        two, three = m * m / 2, m * m * m / 6
        return ((m * e - e + 1) / two, (e - 1 - m) / two,
                (m * e - 2 * e + 2 + m) / three, (e - 1 - m - m * m / 2) / three)


def poisson_moments(mu):
    """(R_split, S_multi, R_irud, S_irud) of ``photonics.poisson_moments`` at
    1200 digits: e^-mu mu^2/2 times A and B, and e^-mu mu^3/12 times C and D
    of ``poisson_tails``."""
    a, b, c, d = poisson_tails(mu)
    with localcontext() as ctx:
        ctx.prec = 1200
        m = Decimal(mu)
        two, three = (-m).exp() * m * m / 2, (-m).exp() * m * m * m / 12
        return two * a, two * b, three * c, three * d


def block_below_three(mu):
    """(R_irud, S_irud) of the block-below-three attack at 100 digits:
    R_irud = (mu - 2 + e^-mu (2 + mu)) / 2 and
    S_irud = (1 - e^-mu (1 + mu + mu^2/2)) / 2.  Both closed forms cancel by
    about mu^3 ~ 1e-36 at mu = 1e-12."""
    with localcontext() as ctx:
        ctx.prec = 100
        m = Decimal(mu)
        head = (-m).exp()
        return (m - 2 + head * (2 + m)) / 2, (1 - head * (1 + m + m * m / 2)) / 2


def click_sums(mu, eta, nmax):
    """Every click sum S(k) = sum_{k<n<=nmax} p(n) (1 - (1 - eta)^(n - k)),
    each summed directly from exact Poisson weights at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu, loss = Decimal(mu), 1 - Decimal(eta)
        pmf = [(-mu).exp()]
        for n in range(1, nmax + 1):
            pmf.append(pmf[-1] * mu / n)
        return [sum(pmf[n] * (1 - loss ** (n - k)) for n in range(k + 1, nmax + 1))
                for k in range(nmax + 1)]


def bb84_critical_attenuation(mu):
    """10 log10(mu / (mu - 1 + e^-mu)) at 800 digits: e^-mu - 1 + mu ~ mu^2/2
    needs 2 x 324 digits at mu = 5e-324."""
    with localcontext() as ctx:
        ctx.prec = 800
        m = Decimal(mu)
        return 10 * (m / (m - 1 + (-m).exp())).log10()


def irud_critical_attenuation(mu):
    """10 log10(mu / R_irud) with R_irud of ``block_below_three``, at 100 digits."""
    rate, _ = block_below_three(mu)
    with localcontext() as ctx:
        ctx.prec = 100
        return 10 * (Decimal(mu) / rate).log10()


def decimal_cos(x):
    """cos x for a Decimal x by its Taylor series, to 1e-110 absolute, at
    the caller's working precision."""
    term, total, k = Decimal(1), Decimal(0), 0
    while abs(term) > Decimal(10) ** -110:
        total += term
        k += 2
        term = -term * x * x / (k * (k - 1))
    return total


def rate_balanced_point(mu, delta_db, rate, fraction):
    """(q, I_Eve) of an attack that supplies ``rate`` photons per pulse and
    concludes on a ``fraction`` of the pulses it attacks, at 100 digits:
    q mu + (1 - q) rate = mu 10^(-delta/10) and
    I = (1 - q) fraction / (q + (1 - q) fraction); (0, 1) where the attack
    alone supplies the rate.  ``rate`` and ``fraction`` are Decimals."""
    with localcontext() as ctx:
        ctx.prec = 100
        mu = Decimal(mu)
        required = mu * Decimal(10) ** (-Decimal(delta_db) / 10)
        if rate >= required:
            return Decimal(0), Decimal(1)
        q = (required - rate) / (mu - rate)
        return q, (1 - q) * fraction / (q + (1 - q) * fraction)


def fourtwo_mu(eta, reference_mu):
    """reference_mu / (1 - cos eta) at the exact eta and reference_mu of the
    floats, at 130 digits: ``decimal_cos`` is good to 1e-110 absolute, so
    1 - cos eta keeps 100 digits down to eta = 1e-4."""
    with localcontext() as ctx:
        ctx.prec = 130
        return Decimal(reference_mu) / (1 - decimal_cos(Decimal(eta)))


def fourtwo_rate_and_fraction(eta, mu):
    """(E, F) of the four-plus-two filter attack to 40 digits, from
    F = P(n>=2) - (e^(-mu s) - e^-mu - mu c e^-mu)/c and
    E = (mu - 1 + e^-mu) - (c/s) F at the exact eta and mu (a float or a
    Decimal).  100 working digits absorb the cancellation in both (about 35
    digits at eta = pi/2, where c ~ 6e-17)."""
    with localcontext() as ctx:
        ctx.prec = 100
        c = decimal_cos(Decimal(eta))
        s, mu = 1 - c, Decimal(mu)
        e_mu = (-mu).exp()
        f = 1 - e_mu * (1 + mu) - ((-mu * s).exp() - e_mu - mu * c * e_mu) / c
        return (mu - 1 + e_mu) - (c / s) * f, f


def two_mode_overlap(n, t):
    """((1 - t)/(1 + t))^n at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        one, dt = Decimal(1), Decimal(t)
        return ((one - dt) / (one + dt)) ** Decimal(n)


def strongpulse_row(mu, delta_db):
    """(mu', mu/mu', overlap, p_e, I_Eve) of the strong-reference-pulse
    scheme at 50 digits: mu' = 10 10^(delta/10), the overlap
    ``two_mode_overlap(mu' - 10, mu/mu')``, p_e = (1 - sqrt(1 - c^2))/2 and
    I_Eve = ``binary_information(p_e)``."""
    with localcontext() as ctx:
        ctx.prec = 50
        mu_prime = 10 * Decimal(10) ** (Decimal(delta_db) / 10)
        ratio = Decimal(mu) / mu_prime
        overlap = two_mode_overlap(mu_prime - 10, ratio)
        p_e = (1 - (1 - overlap * overlap).sqrt()) / 2
        return mu_prime, ratio, overlap, p_e, binary_information(p_e)


def ng12_sifted(gamma):
    """The sifted attack of the two-qubit 1 -> 2 cloner at a float gamma, in
    closed form: D = sin^2(gamma/2) = (1 - cos gamma)/2, q = 2D/(1 + 2D),
    I_AB = 1 - h(q) from the gap 1/2 - q = cos gamma / (2 (1 + 2D)), I_Eve
    from the gap t = sqrt(2D(1 - D))/(1 + 2D) and the basis-revealing
    reference from the gap sqrt(D(1 - D)).  Returns (D, q, I_AB, I_Eve,
    I_ref), each to ``DIGITS`` digits.  ``decimal_cos`` is good to 1e-110
    absolute at 130 digits, so D keeps 100 digits at gamma = 1e-4 and the
    honest gap keeps 90 at gamma = fl(pi/2), where cos gamma = 6.1e-17."""
    with localcontext() as ctx:
        ctx.prec = 130
        c = decimal_cos(Decimal(gamma))
        d = (1 - c) / 2
        q = 2 * d / (1 + 2 * d)
        gaps = (c / (2 * (1 + 2 * d)), (2 * d * (1 - d)).sqrt() / (1 + 2 * d),
                (d * (1 - d)).sqrt())
        infos = [gap_information(g) for g in gaps]
        ctx.prec = DIGITS
        return (+d, +q, *infos)


def nb_mu(n_bases):
    """n_b / (20 sin^2(pi/(2 n_b))) at 80 digits, with sin^2(pi/(2 n_b)) =
    (1 - cos(pi/n_b))/2; pi has 60 digits, and so has mu."""
    with localcontext() as ctx:
        ctx.prec = 80
        sin2 = (1 - decimal_cos(_PI / n_bases)) / 2
        return n_bases / (20 * sin2)


@functools.lru_cache(maxsize=4096)
def _transmission(delta_db):
    """10^(-delta/10) at 80 digits, for a float or Decimal attenuation;
    kept for the attenuations of a grid, which every n_b reads."""
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(10) ** (-Decimal(delta_db) / 10)


def nb_honest_information(mu, delta_db, eta, p_d, qber_opt):
    """I_AB = 1 - h(q) with q = (p_d/2)/(p_d + mu eta 10^(-delta/10)) +
    qber_opt, at most 1/2, from the gap 1/2 - q (``gap_information``), at
    the float delta_db, eta, p_d and qber_opt."""
    with localcontext() as ctx:
        ctx.prec = 80
        p_d = Decimal(p_d)
        signal = mu * Decimal(eta) * _transmission(delta_db)
        q = (p_d / 2 / (p_d + signal) if p_d else 0) + Decimal(qber_opt)
        return gap_information(max(Decimal(1) / 2 - q, Decimal(0)))


def _click_attenuation(mu, eta, target):
    """d = -10 log10(-ln(1 - target)/(eta mu)), or 0 where that is negative."""
    with localcontext() as ctx:
        ctx.prec = 80
        x = -(1 - target).ln() / (Decimal(eta) * mu)
        return Decimal(0) if x >= 1 else -10 * x.log10()


def nb_storing_ladder(n_bases, eta, p_d, qber_opt):
    """(mu, delta1, ladder) of the n_b-bases protocol: mu of ``nb_mu``, the
    critical attenuation of unambiguous discrimination of n_e = 2 n_b - 1
    copies at the exact p_ok = n_b/4^(n_b - 1), and the storing ladder
    [(delta(n_s), I(n_s))] up to its first rung with I_Eve >= I_AB of
    ``nb_honest_information``.  Both attenuations invert the click sums of
    ``click_sums`` to 120 photons (every mu is below 10.6, so the mass past
    them is below 1e-80); the rung information is 1 - h(p_e) at the overlap
    c^n_s, c = cos(pi/(2 n_b)), from the gap sqrt(1 - c^(2 n_s))/2."""
    mu = nb_mu(n_bases)
    sums = click_sums(mu, eta, 120)
    with localcontext() as ctx:
        ctx.prec = 80
        p_ok = Decimal(n_bases) / 4 ** (n_bases - 1)
        delta1 = _click_attenuation(mu, eta, p_ok * sums[2 * n_bases - 2])
        c = decimal_cos(_PI / (2 * n_bases))
        ladder = []
        for n_s in itertools.count(1):
            delta = _click_attenuation(mu, eta, sums[n_s])
            i_eve = gap_information((1 - c ** (2 * n_s)).sqrt() / 2)
            ladder.append((delta, i_eve))
            if i_eve >= nb_honest_information(mu, delta, eta, p_d, qber_opt):
                return mu, delta1, ladder


def nb_storing_info_at(ladder, delta_db):
    """I_Eve at an attenuation (a Decimal or float), linear in the
    attenuation between the rungs of ``nb_storing_ladder``: 0 up to the
    first rung and the last rung's information from it on."""
    with localcontext() as ctx:
        ctx.prec = 80
        delta = Decimal(delta_db)
        if delta <= ladder[0][0]:
            return Decimal(0)
        for (d0, i0), (d1, i1) in zip(ladder, ladder[1:]):
            if delta <= d1:
                return i0 + (delta - d0) / (d1 - d0) * (i1 - i0)
        return ladder[-1][1]


def nb_critical_row(n_bases, alpha, eta, p_d, qber_opt):
    """(mu, delta1, delta2, delta1/alpha, delta2/alpha) of the n_b-bases
    protocol at the float alpha, eta, p_d and qber_opt.  delta2 is where
    the margin I_AB - I_Eve of ``nb_storing_ladder`` crosses zero on the
    ladder's last segment (from 0 dB for a one-rung ladder), bisected in
    Decimal to 1e-55 relative; it is the segment's start where the margin
    is not positive there."""
    mu, delta1, ladder = nb_storing_ladder(n_bases, eta, p_d, qber_opt)

    def margin(delta):
        return (nb_honest_information(mu, delta, eta, p_d, qber_opt)
                - nb_storing_info_at(ladder, delta))

    with localcontext() as ctx:
        ctx.prec = 80
        lo = ladder[-2][0] if len(ladder) > 1 else Decimal(0)
        hi = ladder[-1][0]
        if margin(lo) <= 0:
            hi = lo
        while hi - lo > hi * Decimal("1e-55"):
            mid = (lo + hi) / 2
            if margin(mid) > 0:
                lo = mid
            else:
                hi = mid
        alpha = Decimal(alpha)
        return mu, delta1, hi, delta1 / alpha, hi / alpha


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
