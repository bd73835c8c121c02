"""Buchberger's algorithm over prime fields, with the Gebauer-Moller pair
update, a degree ceiling, and combinatorial dimension readers on the
leading-term ideal.

Monomials are packed into single integers (7 bits per variable plus a top
degree chunk) so comparison, divisibility, lcm and multiplication are a few
machine-int operations.  That keeps the inner reduction loop fast enough
for the 9-variable Jacobian ideals the certification layer feeds in.

Pairs are pruned once, when a new element h enters the basis (Gebauer and
Moller, "On an installation of Buchberger's algorithm", J. Symb. Comp. 6,
1988):

- criterion B drops a queued pair (i, j) when lt(h) divides its lcm and
  differs from both lcm(i, h) and lcm(j, h);
- criteria M and F keep one new pair (i, h) per minimal lcm, and the
  product criterion keeps none for an lcm that a pair with coprime leading
  terms reaches.

Since lt(h) is a normal form, no earlier leading term divides it, so
every lcm(i, h) is a proper multiple of lt(h), and two facts follow that
keep the update cheap.  When lt(h) divides the lcm l of a queued pair
(i, j), lcm(i, h) divides l too, so it equals l if deg l = deg h + 1:
criterion B only looks at queued pairs at least two degrees above h.  A
candidate lt(h) x_v of degree deg(h) + 1 is minimal; it rules out every
candidate in which x_v has a higher exponent than in lt(h), and only the
others are scanned for a minimal divisor.  The degree and x_v tests run on
every element at once, with the leading terms side by side in one integer
(`_Ring.quotients`); only the candidates that pass them are unpacked.

A reduction's reducer is the first basis element whose leading term
divides the monomial.  Each run keeps a divisor index (`_DivisorIndex`,
after the short exponent vectors of Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998): for each
variable v and exponent a, the bitset of the elements whose leading term
has an x_v exponent above a.  A leading term divides m exactly when no
exponent of it exceeds m's, so the elements dividing m are the complement
of the union, over v, of the bitsets at m_v, and the first of them is the
lowest set bit: one lookup per variable, with no loop over the basis.
A memo keeps each monomial's reducer for the run, or ~n when none of the
first n elements divides it; an index never changes once found, because
the basis only grows and redundant elements stay reducers.

A degree is closed by its Hilbert count (Traverso, "Hilbert functions and
the Buchberger algorithm", J. Symb. Comp. 22, 1996).  For m <= n forms of
degrees d_i in n variables, dim (R/I)_d >= c_d, the coefficient of t^d in
prod_i (1 - t^d_i) / (1 - t)^n: the rank of the degree-d map
(+)_i R_{d - d_i} -> R_d can only drop when the coefficients are
specialized, and a regular sequence, which generic forms are, gives
exactly c_d.  The degree-d monomials that no leading term divides number
at least dim (R/I)_d, so once they number c_d the leading terms span the
initial ideal in degree d and every pair still queued there has normal
form zero; such a pair is counted as processed and reduced to zero without
being formed.  With m > n there is no bound and no closure.

Since the count closes a degree without looking at its queued pairs, the
order within a degree decides how many zero reductions are formed first.
Each element carries a signature (k, m): generator k of the canonical
input order has (k, 1), and an element born of a pair takes the larger of
its two sides' signatures, (k_i, m_i lcm / lt_i) and (k_j, m_j lcm / lt_j),
by index and then grevlex (Faugere, "A new efficient algorithm for
computing Groebner bases without reduction to zero (F5)", ISSAC 2002).
The first time a pair of an open degree is popped, `_defer` may send it
behind every pair of its degree not yet deferred: when its signature was
already processed in the degree, or the F5 or the rewrite criterion flags
it.  On a regular sequence those pairs are the syzygies, so the count
mostly closes the degree before they come up again.  A deferred pair is
never dropped: it is formed, or closed by the count, like any other.  The
criteria thus only permute pairs inside one degree, and soundness does
not rest on them: every element is still the normal form of an
S-polynomial of ideal members, every degree still ends with every pair
processed, closed or discarded by Gebauer-Moller, and the reduced basis
of a complete run and the pure powers do not depend on the order.

A run stops at the minimal leading terms, which is all the readers below
use; `GroebnerBasis.polys` inter-reduces the tails on first read, through
one index and one memo over the minimal basis.  Element i's own leading
term need not be left out of its tail's reducers: the tail and every
monomial its reduction meets have the degree of lt_i and lie below it, and
lt_i divides no monomial of its degree other than itself.

Soundness convention used by callers: an empty projective fiber modulo one
good prime certifies emptiness over the rationals for the screened data
(specialization can only enlarge the fiber).  `projective_empty` is
monotone in the generating set, so a basis truncated by the early-stop
flag may prove emptiness but can never fake it.
"""

from __future__ import annotations

import heapq
from collections import Counter

from .exactcore import PrimeField
from .mpoly import MPoly

CHUNK = 7
_CHUNK_MAX = (1 << (CHUNK - 1)) - 1  # 63, the largest exponent we can pack


class DegreeCeilingExceeded(RuntimeError):
    def __init__(self, degree, ceiling):
        super().__init__(
            "S-pair of degree %d exceeds the ceiling %d" % (degree, ceiling)
        )
        self.degree = degree
        self.ceiling = ceiling


class _Ring:
    """Packed-exponent helpers for a fixed variable count."""

    def __init__(self, nvars):
        self.nvars = nvars
        self.shift_deg = CHUNK * nvars
        self.low_mask = (1 << self.shift_deg) - 1
        g = 0
        for i in range(nvars + 1):
            g |= 1 << (CHUNK * i + CHUNK - 1)
        # a divides b exactly when ((b | guard) - a) & guard == guard: no
        # chunk of b borrows from its guard bit
        self.guard = g
        self.low_guard = g & self.low_mask
        self.ones = sum(1 << (CHUNK * i) for i in range(nvars))
        self.width = CHUNK * (nvars + 1)
        self.deg_mask = ((1 << CHUNK) - 1) << self.shift_deg
        self.steps = [(1 << (CHUNK * i)) | (1 << self.shift_deg)
                      for i in range(nvars)]

    def pack(self, exp):
        e = 0
        deg = 0
        for i, v in enumerate(exp):
            if v > _CHUNK_MAX:
                raise OverflowError("exponent %d too large to pack" % v)
            e |= v << (CHUNK * i)
            deg += v
        return e | (deg << self.shift_deg)

    def unpack(self, packed):
        return tuple(
            (packed >> (CHUNK * i)) & ((1 << CHUNK) - 1) for i in range(self.nvars)
        )

    def degree(self, packed):
        return packed >> self.shift_deg

    def key(self, packed):
        """Single-integer grevlex key; larger key = larger monomial."""
        d = packed >> self.shift_deg
        return ((d + 1) << self.shift_deg) - (packed & self.low_mask)

    def quotients(self, row, rep, b):
        """Slot i of the result holds lcm(a_i, b) / b, packed with its
        degree, where slot i of `row` holds the low part of a_i and `rep`
        holds 1; a slot is `width` bits, the size of a packed monomial.

        The guard bit of a chunk survives (a | guard) - b exactly where
        a_i >= b_i, and there the chunk holds a_i - b_i; spread to a 6-bit
        mask it keeps q = max(a - b, 0), with no borrow between chunks.
        """
        lg = self.low_guard * rep
        g = (row | lg) - (b & self.low_mask) * rep
        w = g & lg
        q = g & (w - (w >> (CHUNK - 1)))
        return q | self.chunk_sums(q, rep)

    def chunk_sums(self, x, rep):
        """The sum of the low chunks of each slot of x, in its degree chunk.

        Times `ones` shifted up one chunk, a slot's sum lands in its own
        degree chunk, and the spill into the next slot stays below that
        slot's degree chunk.  No chunk reaches 128 while each slot sums
        below 64, as the slots of `quotients` do: q <= a, and every degree
        is below 64, as the guard-bit divisibility test already needs.
        """
        return (x * self.ones << CHUNK) & (self.deg_mask * rep)

    def standard_above(self, prev):
        """The monomials one degree above the set `prev` whose every divisor
        of that degree lies in `prev`.

        A monomial is reached once from each divisor m / x_i in `prev`, so
        it qualifies when its hit count equals its support size; the guard
        bit of chunk i survives (m | guard) - ones exactly where m_i >= 1.
        """
        hits = Counter(s + st for s in prev for st in self.steps)
        low, lg, ones = self.low_mask, self.low_guard, self.ones
        return {m for m, h in hits.items()
                if h == ((((m & low) | lg) - ones) & lg).bit_count()}


def _to_internal(p: MPoly, ring: _Ring):
    return {ring.pack(e): c.r for e, c in p.terms.items() if c.r}


class _DivisorIndex:
    """The monomials added so far, numbered in order, indexed for the
    question which of them divide a monomial m.

    Row v pairs the shift of x_v's chunk with `above`, where above[a] is
    the bitset of the monomials whose x_v exponent exceeds a.  A monomial
    divides m exactly when it lies in no row's above[m_v], so the
    complement of their union within the added bits is the set of divisors
    of m (module docstring).
    """

    def __init__(self, nvars):
        self.rows = [(CHUNK * v, [0] * (_CHUNK_MAX + 1)) for v in range(nvars)]
        self.all = 0  # the bits of every monomial added, the lowest ones

    def add(self, m):
        bit = self.all + 1
        for shift, above in self.rows:
            for a in range((m >> shift) & _CHUNK_MAX):
                above[a] |= bit
        self.all |= bit

    def divisors(self, m):
        """The bitset of the added monomials that divide m."""
        blocked = 0
        for shift, above in self.rows:
            blocked |= above[(m >> shift) & _CHUNK_MAX]
        return self.all ^ blocked


def _normal_form(terms, lts, tails, index, p, memo):
    """Fully reduced normal form of the homogeneous `terms` against the
    monic basis, whose leading terms `lts` the divisor `index` holds.

    Every term has one degree, and within one degree a smaller packed
    exponent is a larger grevlex monomial, so a min-heap of packed ints
    pops the largest monomial first.  The reducer of a monomial is the
    first basis element whose leading term divides it.  `memo` maps a
    monomial to that index, or to ~n once no element of lts[:n] divides
    it; it stays valid for as long as `lts` is only appended to.
    """
    acc = dict(terms)
    heap = list(acc)
    heapq.heapify(heap)
    out = {}
    n = len(lts)
    while heap:
        e = heapq.heappop(heap)
        c = acc.pop(e, None)
        if c is None:
            continue
        reducer = memo.get(e, -1)
        if reducer < 0:
            if ~reducer < n:  # elements came since the last look-up
                found = index.divisors(e)  # the first is the lowest bit
                reducer = memo[e] = (found & -found).bit_length() - 1 if found else ~n
            if reducer < 0:
                out[e] = c
                continue
        q = e - lts[reducer]
        for et, ct in tails[reducer]:
            e2 = et + q
            prev = acc.get(e2)
            if prev is None:
                v = (-c * ct) % p
                if v:
                    acc[e2] = v
                    heapq.heappush(heap, e2)
            else:
                v = (prev - c * ct) % p
                if v:
                    acc[e2] = v
                else:
                    del acc[e2]
    return out


def _defer(sig, source, seen, lt_index, mult_index, of_index):
    """Whether a pair of signature `sig` = (k, m), taken from element
    `source`, waits behind the other pairs of its degree: its signature
    was already processed in this degree (`seen`), m is divisible by the
    leading term of an element of smaller index (F5), or by the multiplier
    of a later element of index k (rewrite).  `lt_index` and `mult_index`
    hold the elements' leading terms and signature multipliers, and
    `of_index[k]` is the bitset of the elements of index k."""
    if sig in seen:
        return True
    k, m = sig
    below = lt_index.divisors(m)
    if below and any(below & bits for bits in of_index[:k]):
        return True
    return (mult_index.divisors(m) & of_index[k]) >> (source + 1) != 0


def _hilbert_counts(degrees, nvars, top):
    """c_0..c_top, the coefficients of prod_i (1 - t^d_i) / (1 - t)^nvars."""
    c = [1] + [0] * top
    for d in degrees:
        for k in range(top, d - 1, -1):
            c[k] -= c[k - d]
    for _ in range(nvars):
        for k in range(1, top + 1):
            c[k] += c[k - 1]
    return c


class GroebnerBasis:
    """Minimal leading terms plus run statistics; the reduced basis is built
    on the first read of `polys`.

    When stats["early_stop"] is true the elements are a sound subset of the
    ideal whose leading terms already witnessed a zero-dimensional quotient;
    they are not inter-complete and must only feed the monotone readers
    below.
    """

    def __init__(self, field, nvars, ring, lts, tails, stats):
        self.field = field
        self.nvars = nvars
        self.stats = stats
        self._ring = ring
        self._lts = lts
        self._tails = tails
        self._polys = None

    def leading_exponents(self):
        return [self._ring.unpack(lt) for lt in self._lts]

    def __len__(self):
        return len(self._lts)

    @property
    def polys(self):
        """The monic elements, each tail fully reduced by the others."""
        if self._polys is None:
            ring, field, lts, tails = self._ring, self.field, self._lts, self._tails
            one = field.coerce(1)
            # one index and one memo for every tail; lt needs no exclusion
            # (module docstring)
            index = _DivisorIndex(self.nvars)
            for lt in lts:
                index.add(lt)
            memo = {}
            self._polys = []
            for lt, tail in zip(lts, tails):
                nf = _normal_form(dict(tail), lts, tails, index, field.p, memo)
                pairs = [(ring.unpack(lt), one)] + [
                    (ring.unpack(e), field.coerce(c)) for e, c in sorted(nf.items())]
                self._polys.append(MPoly.from_terms(self.nvars, pairs, field))
        return self._polys


def buchberger(
    gens,
    degree_ceiling: int = 20,
    stop_when_zero_dimensional: bool = False,
) -> GroebnerBasis:
    """Groebner basis of homogeneous generators over GF(p), grevlex.

    Pairs are processed degree first, signature-flagged pairs last within
    a degree, with a deterministic tiebreak, and the Gebauer-Moller update
    (module docstring) prunes them as each basis element h is inserted.
    It rests on two facts: criterion B drops no queued pair of degree at
    most deg(h) + 1, and a candidate lcm of degree deg(h) + 1 is minimal.

    `stats` holds:
    - "s_pairs_processed": pairs processed, whether reduced or closed;
    - "s_pairs_skipped": pairs the Gebauer-Moller criteria discard, so
      processed + skipped is every pair formed, less those still queued
      at an early stop;
    - "reductions_to_zero": processed pairs whose S-polynomial has normal
      form zero, whether it was reduced or the Hilbert count closed its
      degree (module docstring);
    - "reductions_closed": those of them the count closed, never formed;
    - "max_degree", "early_stop", "basis_size" and "pure_power_degrees"
      (variable -> least d with x_v^d a leading term).

    Any surviving S-pair whose lcm degree exceeds `degree_ceiling` aborts
    the run with DegreeCeilingExceeded.  Pairs the criteria discard never
    reach that check, so a run may finish where a weaker pruning would
    abort; it never returns a basis that is wrong.
    Identical inputs yield identical bases.  The run stops at the minimal
    leading terms; the tails are inter-reduced when `polys` is first read.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    field = gens[0].field
    if not isinstance(field, PrimeField):
        raise TypeError("buchberger runs over prime fields only")
    nvars = gens[0].nvars
    for g in gens:
        if g.field != field or g.nvars != nvars:
            raise TypeError("generators from different rings")
        if not g.is_homogeneous():
            raise ValueError("buchberger needs homogeneous generators")
    if degree_ceiling > _CHUNK_MAX - 3:
        raise ValueError("degree ceiling too large for packed exponents")
    p = field.p
    ring = _Ring(nvars)

    raw = [_to_internal(g, ring) for g in gens]
    raw = [t for t in raw if t]
    # canonical input order: by leading key then term count
    raw.sort(key=lambda t: (max(ring.key(e) for e in t), len(t)))

    lts = []  # leading packed exponents, parallel to tails
    tails = []  # list of (packed, coeff) below the leading term, monic scale
    # indices of the elements that spawn pairs, in insertion order; the
    # others are redundant but stay as reducers
    live = []
    sigs = []  # (generator index, packed multiplier) of each element
    lt_index = _DivisorIndex(nvars)  # the leading terms
    mult_index = _DivisorIndex(nvars)  # the signature multipliers
    of_index = [0] * len(raw)  # the elements of each signature index
    memo = {}  # reducer memo shared by every normal form of this run

    pure_power_vars = {}
    stats = {
        "s_pairs_processed": 0,
        "s_pairs_skipped": 0,
        "reductions_to_zero": 0,
        "reductions_closed": 0,
        "max_degree": 0,
        "early_stop": False,
    }

    guard = ring.guard
    low, shift = ring.low_mask, ring.shift_deg
    pending = {}  # degree -> {(i, j): lcm} of the queued pairs
    # (degree, deferred, key, i, j); entries dropped from `pending` go stale
    heap = []

    def note_pure_power(lt):
        exp = ring.unpack(lt)
        support = [i for i, e in enumerate(exp) if e]
        if len(support) == 1:
            v = support[0]
            d = exp[v]
            if v not in pure_power_vars or d < pure_power_vars[v]:
                pure_power_vars[v] = d

    # the leading terms as one row of slots (`_Ring.quotients`): slot i of
    # `row` holds the low part of lts[i], and of `rep` a 1
    width = ring.width
    row = rep = 0
    dead = 0  # the degree guard bit of the slot of each element not live

    def insert(terms, sig):
        nonlocal row, rep, dead
        items = sorted(terms.items())  # one degree: largest monomial first
        lt, lc = items[0]
        inv = pow(lc, p - 2, p)
        tail = [(e, c * inv % p) for e, c in items[1:]]
        idx = len(lts)
        deg = lt >> shift
        quo = ring.quotients(row, rep, lt)  # one pass over every element
        one = rep << shift  # a 1 in the degree chunk of each slot
        top = one << (CHUNK - 1)  # the guard bit of each degree chunk

        def lcm(i):
            return lt + ((quo >> (width * i)) & ((1 << width) - 1))

        def at_least(x, k):  # the slots whose degree chunk in x is >= k
            return ((x | top) - k * one) & top

        # criterion B, on the queued pairs two degrees above lt and more
        dropped = 0
        for d, queued in pending.items():
            if d > deg + 1:
                gone = [ij for ij, l in queued.items()
                        if ((l | guard) - lt) & guard == guard
                        and l != lcm(ij[0]) and l != lcm(ij[1])]
                for ij in gone:
                    del queued[ij]
                dropped += len(gone)
        # criteria M and F: one pair per minimal lcm; -1 marks an lcm that a
        # coprime pair reaches, which the product criterion discards
        rep_of = {}

        def add(bits):  # the live elements whose degree guard bit is set
            bits &= ~dead
            while bits:
                b = bits & -bits
                bits ^= b
                i = b.bit_length() // width - 1
                l = lcm(i)
                if l == lts[i] + lt:
                    rep_of[l] = -1
                elif l not in rep_of:
                    rep_of[l] = i

        above = at_least(quo, 2)
        add(top & ~above)  # lt * x_v, minimal (module docstring)
        near = 0  # chunk v is full when lt * x_v is a candidate
        for l in rep_of:
            near |= ((l - lt) & low) * _CHUNK_MAX
        # the others, less those with an x_v of `near` in their quotient
        add(above & ~at_least(ring.chunk_sums(quo & near * rep, rep), 1))
        minimal = []  # the minimal candidates above degree deg + 1
        kept = 0
        for l in sorted(rep_of):  # degree is the top chunk: divisors first
            d = l >> shift
            if d > deg + 1:
                lg = l | guard
                if any((lg - m) & guard == guard for m in minimal):
                    continue
                minimal.append(l)
            i = rep_of[l]
            if i >= 0:
                pending.setdefault(d, {})[(i, idx)] = l
                heapq.heappush(heap, (d, 0, ring.key(l), i, idx))
                kept += 1
        stats["s_pairs_skipped"] += dropped + len(live) - kept
        # lt divides only leading terms of higher degree; generators enter
        # by degree and pairs pop by degree, so only a generator, one of the
        # first elements, can have one
        for i in [i for i in live[:len(raw)]
                  if ((lts[i] | guard) - lt) & guard == guard]:
            live.remove(i)
            dead |= 1 << (width * i + width - 1)
        row |= (lt & low) << (width * idx)
        rep |= 1 << (width * idx)
        lts.append(lt)
        tails.append(tail)
        live.append(idx)
        sigs.append(sig)
        lt_index.add(lt)
        mult_index.add(sig[1])
        of_index[sig[0]] |= 1 << idx
        note_pure_power(lt)

    for k, terms in enumerate(raw):
        nf = _normal_form(terms, lts, tails, lt_index, p, memo)
        if nf:
            insert(nf, (k, 0))

    # Hilbert-count closure (module docstring): `standard` holds the degree
    # `std_deg` monomials that no leading term divides
    closable = len(raw) <= nvars
    if closable:
        counts = _hilbert_counts([ring.degree(next(iter(t))) for t in raw],
                                 nvars, degree_ceiling)
        gen_lts = set(lts)
        std_deg = -1

    def zero_dimensional():
        return len(pure_power_vars) == nvars

    seen_deg = -1
    while heap:
        if stop_when_zero_dimensional and zero_dimensional():
            stats["early_stop"] = True
            break
        deg, deferred, key, i, j = heapq.heappop(heap)
        l = pending[deg].pop((i, j), None)
        if l is None:
            continue
        if deg > degree_ceiling:
            raise DegreeCeilingExceeded(deg, degree_ceiling)
        stats["max_degree"] = max(stats["max_degree"], deg)
        if closable:
            while std_deg < deg:
                standard = ring.standard_above(standard) if std_deg >= 0 else {0}
                standard -= gen_lts
                std_deg += 1
            if len(standard) <= counts[deg]:
                if len(standard) < counts[deg]:
                    raise RuntimeError(
                        "internal error: %d standard monomials of degree %d "
                        "fall below the Hilbert bound %d"
                        % (len(standard), deg, counts[deg]))
                stats["reductions_closed"] += 1
                continue
        qi = l - lts[i]
        qj = l - lts[j]
        # the pair's signature: the larger of its two sides', on a tie j's
        (ki, mi), (kj, mj) = sigs[i], sigs[j]
        if (ki, ring.key(mi + qi)) > (kj, ring.key(mj + qj)):
            sig, source = (ki, mi + qi), i
        else:
            sig, source = (kj, mj + qj), j
        if deg != seen_deg:
            seen, seen_deg = set(), deg  # signatures processed in `deg`
        if not deferred and _defer(sig, source, seen, lt_index, mult_index,
                                   of_index):
            pending[deg][(i, j)] = l
            heapq.heappush(heap, (deg, 1, key, i, j))
            continue
        seen.add(sig)
        stats["s_pairs_processed"] += 1
        # S-polynomial of the monic pair
        terms = {}
        for e, c in tails[i]:
            terms[e + qi] = c
        for e, c in tails[j]:
            e2 = e + qj
            v = (terms.get(e2, 0) - c) % p
            if v:
                terms[e2] = v
            else:
                terms.pop(e2, None)
        nf = _normal_form(terms, lts, tails, lt_index, p, memo)
        if nf:
            insert(nf, sig)
            if closable:
                standard.discard(lts[-1])
        else:
            stats["reductions_to_zero"] += 1

    # a closed pair counts as processed and reduced to zero
    stats["s_pairs_processed"] += stats["reductions_closed"]
    stats["reductions_to_zero"] += stats["reductions_closed"]

    # the minimal leading terms, in increasing grevlex order: a normal form's
    # leading term is divisible by no earlier one, and an element leaves
    # `live` once a later leading term divides its own
    minimal = sorted(live, key=lambda k: ring.key(lts[k]))
    stats["basis_size"] = len(minimal)
    stats["pure_power_degrees"] = dict(sorted(pure_power_vars.items()))
    return GroebnerBasis(field, nvars, ring, [lts[k] for k in minimal],
                         [tails[k] for k in minimal], stats)


def projective_empty(gb: GroebnerBasis) -> bool:
    """True when every variable shows a pure power among the leading terms.

    Monotone: enlarging the generating set can only switch False to True,
    so a verdict of True from a truncated basis stands.
    """
    found = set()
    for exp in gb.leading_exponents():
        support = [i for i, e in enumerate(exp) if e]
        if len(support) == 1:
            found.add(support[0])
    return len(found) == gb.nvars


def homogeneous_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient by the leading-term ideal.

    This is the size of the largest variable subset S such that no leading
    term is supported inside S.  For the affine cone of a projectively
    empty locus the answer is 0.
    """
    n = gb.nvars
    masks = []
    for exp in gb.leading_exponents():
        m = 0
        for i, e in enumerate(exp):
            if e:
                m |= 1 << i
        if m == 0:
            return -1  # unit ideal, nothing survives
        masks.append(m)
    best = -1
    for s in range(1 << n):
        ok = True
        for m in masks:
            if m & ~s == 0:
                ok = False
                break
        if ok:
            c = bin(s).count("1")
            if c > best:
                best = c
    return best


def projective_dimension(gb: GroebnerBasis) -> int:
    """Projective dimension of the zero locus; -1 means empty."""
    return homogeneous_dimension(gb) - 1
