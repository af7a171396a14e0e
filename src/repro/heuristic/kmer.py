"""K-mer words, neighbourhoods and the query word table.

Protein BLAST does not demand exact k-mer matches: a database word seeds
an alignment if its substitution score against some query word reaches
the threshold ``T`` (the *neighbourhood*).  With BLOSUM62, ``k = 3`` and
``T = 11`` are the classic defaults.

Words are packed into integers base-``|alphabet|`` so the query word
table is a word-sorted CSR array (:class:`WordTable`: word -> query
positions) and scanning a database is one rolling-hash pass plus one
table lookup per position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import PROTEIN, Alphabet
from ..exceptions import EngineError
from ..scoring.matrices import SubstitutionMatrix

__all__ = [
    "KmerWordCoder",
    "WordTable",
    "neighborhood_words",
    "build_query_word_table",
]

#: Query k-mer x word scores held at once while building a word table.
_TABLE_CELLS = 1 << 15


@dataclass(frozen=True)
class KmerWordCoder:
    """Packs/unpacks length-``k`` residue words into integers."""

    k: int
    alphabet: Alphabet = PROTEIN

    def __post_init__(self) -> None:
        if self.k < 1:
            raise EngineError(f"k must be >= 1, got {self.k}")
        if self.alphabet.size ** self.k > 2 ** 62:
            raise EngineError("word space too large to pack into an int")

    @property
    def base(self) -> int:
        """Radix of the packing (alphabet size)."""
        return self.alphabet.size

    def encode(self, codes: np.ndarray) -> int:
        """Pack one k-mer (residue-code array of length ``k``)."""
        if len(codes) != self.k:
            raise EngineError(f"expected a {self.k}-mer, got {len(codes)}")
        word = 0
        for c in codes:
            word = word * self.base + int(c)
        return word

    def decode(self, word: int) -> np.ndarray:
        """Unpack an integer word back into residue codes."""
        out = np.empty(self.k, dtype=np.uint8)
        for pos in range(self.k - 1, -1, -1):
            out[pos] = word % self.base
            word //= self.base
        return out

    def words_of(self, sequence: np.ndarray) -> np.ndarray:
        """All overlapping k-mer words of a sequence (vectorised).

        Returns an empty array for sequences shorter than ``k``.
        """
        seq = np.asarray(sequence, dtype=np.int64)
        n = len(seq) - self.k + 1
        if n <= 0:
            return np.empty(0, dtype=np.int64)
        words = np.zeros(n, dtype=np.int64)
        for off in range(self.k):
            words = words * self.base + seq[off : off + n]
        return words


def neighborhood_words(
    kmer: np.ndarray,
    matrix: SubstitutionMatrix,
    threshold: int,
    *,
    coder: KmerWordCoder | None = None,
    standard_only: bool = True,
) -> list[int]:
    """All words scoring at least ``threshold`` against ``kmer``.

    Branch-and-bound enumeration: a partial word is abandoned as soon as
    its score plus the best still-achievable remainder falls below the
    threshold.  ``standard_only`` restricts neighbours to the first
    ``min(20, matrix.size)`` codes, as :func:`build_query_word_table`
    does (the standard residues of a protein matrix; ambiguity codes
    never help a seed).
    """
    c = coder or KmerWordCoder(len(kmer), matrix.alphabet)
    if len(kmer) != c.k:
        raise EngineError("kmer length does not match the coder")
    limit = min(20, matrix.size) if standard_only else matrix.size
    sub = matrix.data
    # Best achievable score per remaining position (suffix maxima).
    best_rest = np.zeros(c.k + 1, dtype=np.int64)
    for pos in range(c.k - 1, -1, -1):
        best_rest[pos] = best_rest[pos + 1] + sub[kmer[pos], :limit].max()

    out: list[int] = []

    def walk(pos: int, word: int, score: int) -> None:
        if pos == c.k:
            out.append(word)
            return
        row = sub[kmer[pos]]
        rest = best_rest[pos + 1]
        for b in range(limit):
            s = score + int(row[b])
            if s + rest >= threshold:
                walk(pos + 1, word * c.base + b, s)

    walk(0, 0, 0)
    return out


@dataclass(frozen=True)
class WordTable:
    """The query's neighbourhood words as a word-sorted CSR table.

    ``positions[offsets[w]:offsets[w + 1]]`` are the query positions
    whose neighbourhood holds the packed word ``w`` (packed as
    :class:`KmerWordCoder` packs it, radix ``base``), ascending.
    """

    k: int
    base: int
    offsets: np.ndarray    # int64, base**k + 1 entries
    positions: np.ndarray  # int32 query positions, grouped by word

    def positions_of(self, word: int) -> np.ndarray:
        """Query positions whose neighbourhood holds ``word``."""
        return self.positions[self.offsets[word] : self.offsets[word + 1]]


def build_query_word_table(
    query: np.ndarray,
    matrix: SubstitutionMatrix,
    *,
    k: int = 3,
    threshold: int = 11,
) -> WordTable:
    """Word -> query positions table, neighbourhoods included.

    This is BLAST's pre-processed query structure: scanning a database
    sequence then needs only one table lookup per position.  Every query
    k-mer is scored against every word over the first
    ``min(20, matrix.size)`` codes (the standard residues of a protein
    matrix; ambiguity codes never help a seed), ``_TABLE_CELLS`` scores
    at a time; the words reaching ``threshold`` are exactly
    :func:`neighborhood_words` of that k-mer.
    """
    coder = KmerWordCoder(k, matrix.alphabet)
    q = np.asarray(query, dtype=np.intp)
    nb = min(20, matrix.size)
    sub = matrix.data[:, :nb].astype(np.int32)
    # Packed word of every neighbour-space word, in neighbour order.
    packed = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        packed = (packed[:, None] * coder.base + np.arange(nb)).ravel()
    rows = max(0, len(q) - k + 1)
    step = max(1, _TABLE_CELLS // len(packed))
    compact = np.min_scalar_type(len(packed))
    pos_parts, word_parts = [np.empty(0, np.int32)], [np.empty(0, compact)]
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        score = sub[q[r0:r1]]
        for t in range(1, k):
            score = (
                score[:, :, None] + sub[q[r0 + t : r1 + t]][:, None, :]
            ).reshape(r1 - r0, -1)
        pos, word = np.nonzero(score >= threshold)
        pos_parts.append((pos + r0).astype(np.int32))
        word_parts.append(word.astype(compact))
    pos = np.concatenate(pos_parts)
    word = np.concatenate(word_parts)
    # Stable: positions stay ascending within each word.  Neighbour
    # order and packed order agree, so sorting either sorts both.
    order = np.argsort(word, kind="stable")
    offsets = np.zeros(coder.base**k + 1, dtype=np.int64)
    offsets[packed + 1] = np.bincount(word, minlength=len(packed))
    np.cumsum(offsets, out=offsets)
    return WordTable(k=k, base=coder.base, offsets=offsets, positions=pos[order])
