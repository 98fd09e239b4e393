"""NPN classification (input Negation / input Permutation / output Negation).

Two functions are NPN-equivalent when one maps to the other by permuting
inputs, complementing some inputs, and possibly complementing the output.
Array synthesis cost is invariant under input transforms (literals are
free in both polarities on a crossbar), so NPN classes are the right
granularity for expressiveness studies — e.g. "which functions fit a 2x2
lattice" (see :mod:`repro.synthesis.enumerate_lattices`) — and the right
key granularity for the :mod:`repro.engine` result cache.

The canonical representative is the table whose value array is
lexicographically minimal (entry 0 first) over all ``2 * 2^n * n!``
transforms.  :func:`npn_canonical` enumerates every one of them at once
on truth-table *words* (one ``uint64``, bit ``m`` = ``f(m)``; exact for
``n <= MAX_EXACT_NPN_VARS`` = 6):

* one gather and one ``packbits`` build the ``2^n`` input-negated words
  ``f(x ^ nu)``;
* ``n(n-1)/2`` adjacent-variable delta swaps, each one whole-array
  shift-and-mask op, build the ``n!`` permutations of every negated word;
* the entry-0-first key of transform ``(p, nu, o)`` orders exactly like
  the LSB-first word of ``(p, nu ^ (2^n - 1), o)`` — complementing every
  input reverses the table — so reversing the negation axis gives all
  keys; output negation complements a word, so ``min`` and ``max`` of
  the ``2^n x n!`` array give the answer.

The witness is part of the contract too: the engine cache rewrites
stored lattices through it, so among the transforms that reach the
minimal key the winner is fixed as the smallest ``(o, nu, rank)``, with
``rank`` the permutation's position in :func:`itertools.permutations`
order; ``tests/data/npn_witness_golden.json`` pins forms and witnesses.

The blind reference :func:`npn_canonical_exhaustive` is kept as the
test oracle (classic class counts: 4 for n=2, 14 for n=3); past
``n = 6``, :func:`npn_semicanonical` gives keys in ``O(n 2^n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .truthtable import TruthTable

#: Largest variable count the exact canonical search accepts (2^n must
#: fit one uint64 word).
MAX_EXACT_NPN_VARS = 6


@dataclass(frozen=True)
class NpnTransform:
    """A witness transform: ``g(x) = f(perm/neg(x)) ^ output_negate``."""

    permutation: tuple[int, ...]
    input_negation_mask: int
    output_negate: bool


def apply_transform(table: TruthTable, transform: NpnTransform) -> TruthTable:
    """Apply an NPN transform to a truth table.

    The result ``g`` satisfies ``g(x) = f(sigma(x)) ^ out``: new variable
    ``i`` reads old variable ``perm[i]``, so bit ``perm[i]`` of
    ``sigma(x)`` is ``x_i ^ neg[perm[i]]``, with ``neg`` the
    ``input_negation_mask`` over *old* variable indices.
    """
    n = table.n
    idx = np.arange(1 << n)
    old = np.zeros(1 << n, dtype=np.int64)
    for new_var, old_var in enumerate(transform.permutation):
        bit = (idx >> new_var) & 1
        if (transform.input_negation_mask >> old_var) & 1:
            bit ^= 1
        old |= bit << old_var
    values = table.values[old]
    if transform.output_negate:
        values = ~values
    return TruthTable(n, values)


def npn_canonical_exhaustive(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """Blind-enumeration reference canonicalisation (n <= 5).

    Tries every ``n! * 2^(n+1)`` transform; kept as the test oracle
    :func:`npn_canonical`'s canonical forms are property-tested against
    (its witness follows a different tie order).
    """
    n = table.n
    if n > 5:
        raise ValueError("exhaustive NPN canonicalisation supports n <= 5")
    best: TruthTable | None = None
    best_key: bytes | None = None
    best_transform: NpnTransform | None = None
    for perm in permutations(range(n)):
        for neg_mask in range(1 << n):
            for out_neg in (False, True):
                transform = NpnTransform(perm, neg_mask, out_neg)
                candidate = apply_transform(table, transform)
                key = candidate.values.tobytes()
                if best_key is None or key < best_key:
                    best, best_key, best_transform = candidate, key, transform
    assert best is not None and best_transform is not None
    return best, best_transform


@lru_cache(maxsize=1)
def _swap_masks() -> tuple[tuple[np.uint64, np.uint64], ...]:
    """Per variable ``v < 5``: ``(2^v, mask)`` as ``uint64`` scalars.

    ``mask`` has bit ``m`` set when assignment ``m`` has ``x_v = 1,
    x_{v+1} = 0``: the half of a word that a delta swap of ``v`` and
    ``v + 1`` exchanges with the assignments ``2^v`` above.  Both are
    ``uint64`` because numpy < 2 float-promotes (and then refuses to
    shift) a ``uint64`` mixed with a Python int.
    """
    return tuple((np.uint64(1 << v),
                  np.uint64(sum(1 << m for m in range(64)
                                if m >> v & 1 and not m >> (v + 1) & 1)))
                 for v in range(MAX_EXACT_NPN_VARS - 1))


def _swap(words: np.ndarray, v: int) -> np.ndarray:
    """``f(x with x_v and x_{v+1} exchanged)`` for every word in ``words``."""
    shift, mask = _swap_masks()[v]
    delta = ((words >> shift) ^ words) & mask
    return words ^ delta ^ (delta << shift)


def _permute_all(words: np.ndarray, n: int) -> np.ndarray:
    """Every variable permutation of every word: shape ``(len, n!)``.

    Variables are inserted one at a time: permuting ``0..k`` is each
    permutation of ``0..k-1`` composed with one of the ``k + 1``
    rotations that the adjacent swaps ``(k-1, k), (k-2, k-1), ...``
    produce in turn, so ``n(n-1)/2`` whole-array delta swaps build all
    ``n!`` columns.  Column order is this construction's, not
    :func:`itertools.permutations`'; :func:`_plan` maps between them.
    """
    block = words[:, None]
    for k in range(1, n):
        copies = [block]
        for v in range(k - 1, -1, -1):
            copies.append(_swap(copies[-1], v))
        block = np.concatenate(copies, axis=1)
    return block


@lru_cache(maxsize=MAX_EXACT_NPN_VARS + 1)
def _plan(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray,
                           np.ndarray, np.dtype, np.uint64]:
    """What :func:`npn_canonical` needs per ``n``, built on first use.

    Returns ``(perms, ranks, flips, row_dtype, full)``:

    * ``perms[p]``: the permutation of :func:`_permute_all` column ``p``
      in the :class:`NpnTransform` convention, and ``ranks[p]`` its
      position in :func:`itertools.permutations` order.  Column ``p``
      turns ``f`` into ``f(P(x))``; running it on the projection words
      ``x_v`` finds ``P``: the column maps the word of ``x_v`` to the
      word of ``x_u`` exactly when ``P(x)_v = x_u``, i.e.
      ``perms[p][u] = v``;
    * ``flips[nu, x] = x ^ nu``: one gather gives every input negation;
    * ``row_dtype``: the little-endian unsigned dtype of ``2^n`` packed
      bits;
    * ``full``: the all-ones word of ``2^n`` bits.
    """
    size = 1 << n
    projections = [sum(1 << m for m in range(size) if m >> v & 1)
                   for v in range(n)]
    moved = _permute_all(np.array(projections, dtype=np.uint64), n)
    source = {word: u for u, word in enumerate(projections)}
    perms = []
    for column in moved.T.tolist():
        perm = [0] * n
        for v, word in enumerate(column):
            perm[source[word]] = v
        perms.append(tuple(perm))
    rank = {perm: r for r, perm in enumerate(permutations(range(n)))}
    index = np.arange(size)
    return (tuple(perms),
            np.array([rank[perm] for perm in perms], dtype=np.int64),
            index[:, None] ^ index[None, :],
            np.dtype(f"<u{max(1, size // 8)}"),
            np.uint64((1 << size) - 1))


def npn_canonical(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """The lexicographically-minimal NPN representative and its witness.

    Exact for ``n <= MAX_EXACT_NPN_VARS``: all ``2 * 2^n * n!``
    transforms are enumerated at once on ``uint64`` truth-table words;
    see the module docstring for the key order and the tie rule.
    """
    n = table.n
    if n > MAX_EXACT_NPN_VARS:
        raise ValueError(
            f"exact NPN canonicalisation supports n <= {MAX_EXACT_NPN_VARS}")
    perms, ranks, flips, row_dtype, full = _plan(n)
    negated = table.values[flips]  # negated[nu, x] = f(x ^ nu)
    words = np.packbits(negated, axis=1, bitorder="little")
    words = words.view(row_dtype)[:, 0].astype(np.uint64)
    # Reversing the negation axis makes word order key order: row nu
    # then holds the words of negation nu ^ (2^n - 1), which are the
    # tables of negation nu with the entries reversed, so entry 0 lands
    # in the top bit.
    keys = _permute_all(words, n)[::-1]
    low, high = keys.min(), keys.max()
    out_neg = bool((high ^ full) < low)  # a tie keeps the output
    best = high ^ full if out_neg else low
    tied = keys == (high if out_neg else low)
    # Tie rule (module docstring): the first negation holding a minimum,
    # then the smallest permutation rank in it.
    neg_mask = int(np.argmax(tied.any(axis=1)))
    winner = int(np.argmin(np.where(tied[neg_mask], ranks, len(perms))))
    transform = NpnTransform(perms[winner], neg_mask, out_neg)
    # The representative is the minimal key read MSB-first.
    key_bits = np.unpackbits(np.array([best], dtype="<u8").view(np.uint8),
                             bitorder="little")
    return TruthTable(n, key_bits[(1 << n) - 1::-1]), transform


def _walsh_hadamard(signed: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform of a ``(2^n,)`` ±1 vector.

    Coefficient ``s`` correlates the function with the parity of the
    variables in ``s`` (assignment bit ``v`` aligns with coefficient bit
    ``v``), so per-variable |spectrum| multisets are NPN invariants: a
    permutation permutes coefficients within the same bit-count shells,
    input/output negations only flip signs.
    """
    w = signed.astype(np.int64)
    h = 1
    while h < w.size:
        w = w.reshape(-1, 2, h)
        w = np.stack([w[:, 0, :] + w[:, 1, :],
                      w[:, 0, :] - w[:, 1, :]], axis=1)
        h <<= 1
    return w.reshape(-1)


def npn_semicanonical(table: TruthTable) -> tuple[TruthTable, NpnTransform]:
    """A semi-canonical NPN representative with a *real* witness transform.

    The exact search (:func:`npn_canonical`) is infeasible past
    ``MAX_EXACT_NPN_VARS``; this normalization runs in ``O(n 2^n)`` at any
    ``n`` and makes every decision from NPN-invariant statistics, so two
    class members map to the *same* representative whenever those
    invariants are tie-free (the common case for random functions):

    * output polarity: complement when it shrinks the on-set; an exact
      half/half tie normalizes *both* polarities and keeps the
      lexicographically smaller representative (still invariant);
    * per-variable input negation: order each variable's cofactor on-set
      counts ``(c0, c1)`` as ``c0 <= c1``, ties refined by the sorted
      pairwise cofactor-count profile of each side (ties after that keep
      the input polarity);
    * variable permutation: sort variables by the invariant key
      ``(c0, pairwise cofactor-count profile, sorted per-variable
      |Walsh-Hadamard| spectrum)``, ties broken by original index (the
      "semi" part — a tie may split a class, never merge two).

    Unlike a bare invariant hash, the returned :class:`NpnTransform` is a
    true witness — ``apply_transform(table, t)`` *is* the representative
    — so cached lattices can be rewritten between class members exactly
    as with the exact canonical form.  Collision-safety is the caller's
    affair: key on the representative's full packed table (e.g.
    ``content_hash``), not on lossy invariants.
    """
    n = table.n
    size = 1 << n
    values = table.values.astype(bool)
    ones = int(values.sum())
    if 2 * ones != size:
        return _semicanonical_polarity(table, values, ones > size - ones)
    # Exact half/half on-set: the polarity choice has no invariant count
    # to lean on, so normalize both and keep the smaller representative
    # (classmates enumerate the same two candidates).
    candidates = [_semicanonical_polarity(table, values, out_neg)
                  for out_neg in (False, True)]
    return min(candidates, key=lambda cand: cand[0].values.tobytes())


def _semicanonical_polarity(table: TruthTable, values: np.ndarray,
                            out_neg: bool) -> tuple[TruthTable, NpnTransform]:
    """The semi-canonical normalization with the output polarity fixed."""
    n = table.n
    size = 1 << n
    f = values ^ out_neg
    onset = int(f.sum())
    # Per-assignment variable bits of the on-set: bits[v, k] is bit v of
    # the k-th on-set minterm.  All cofactor statistics read off it.
    minterms = np.flatnonzero(f)
    bits = (minterms[None, :] >> np.arange(max(n, 1))[:, None]) & 1
    # pair[v, a, u, b] = |{x in onset : x_v = a, x_u = b}|; the sorted-
    # over-b profiles below are invariant under every other variable's
    # (undecided) negation and under variable permutation.
    pair = np.zeros((n, 2, n, 2), dtype=np.int64)
    for v in range(n):
        for a in (0, 1):
            side = bits[:, bits[v] == a] if n else bits
            for u in range(n):
                b1 = int(side[u].sum()) if side.size else 0
                pair[v, a, u, 1] = b1
                pair[v, a, u, 0] = side.shape[1] - b1

    def _side_profile(v: int, a: int) -> tuple:
        return tuple(sorted(tuple(sorted(pair[v, a, u].tolist()))
                            for u in range(n) if u != v))

    neg_mask = 0
    c0s = []
    for v in range(n):
        c1 = int(pair[v, 1, v, 1])
        c0 = onset - c1
        negate = c0 > c1 or (c0 == c1
                             and _side_profile(v, 1) < _side_profile(v, 0))
        if negate:
            neg_mask |= 1 << v
            c0 = c1
        c0s.append(c0)

    def _pair_profile(v: int) -> tuple:
        lo = (neg_mask >> v) & 1            # the normalized 0-side of v
        return tuple(sorted((tuple(sorted(pair[v, lo, u].tolist())),
                             tuple(sorted(pair[v, 1 - lo, u].tolist())))
                            for u in range(n) if u != v))

    var_bit = (np.arange(size)[None, :] >> np.arange(max(n, 1))[:, None]) & 1
    spectrum = np.abs(_walsh_hadamard(1 - 2 * f.astype(np.int64)))
    keys = [(c0s[v], _pair_profile(v),
             tuple(np.sort(spectrum[var_bit[v] == 1]).tolist()))
            for v in range(n)]
    perm = tuple(sorted(range(n), key=lambda v: keys[v]))
    transform = NpnTransform(perm, neg_mask, out_neg)
    return apply_transform(table, transform), transform


def npn_equivalent(a: TruthTable, b: TruthTable) -> bool:
    """True when the two functions are in the same NPN class."""
    if a.n != b.n:
        return False
    return npn_canonical(a)[0] == npn_canonical(b)[0]


def npn_classes(tables: list[TruthTable]) -> dict[TruthTable, list[TruthTable]]:
    """Group functions by NPN class (keyed by the canonical form)."""
    classes: dict[TruthTable, list[TruthTable]] = {}
    for table in tables:
        canonical, _ = npn_canonical(table)
        classes.setdefault(canonical, []).append(table)
    return classes


def count_npn_classes(n: int) -> int:
    """Number of NPN classes of all n-variable functions (n <= 3 feasible)."""
    if n > 3:
        raise ValueError("full-space class counting is exponential; use n <= 3")
    seen: set[bytes] = set()
    for bits in range(1 << (1 << n)):
        canonical, _ = npn_canonical(TruthTable.from_bits(n, bits))
        seen.add(canonical.values.tobytes())
    return len(seen)
