"""Bilingual alignment algebra over label-to-frame sequences.

Label sequences are tuples of non-blank unit ids; alignment sequences are
tuples over units plus blank (id 0). Two monolingual alignment streams
compose frame-wise into one bilingual stream, and any bilingual stream
decomposes back into its monolingual constituents. Exhaustive enumerators
for CTC alignments and transducer paths serve as brute-force oracles for
the lattice losses; they are hard-capped because they are combinatorial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    AlignmentConflictError,
    CapExceededError,
    CsrtError,
    InfeasibleTargetError,
    LengthMismatchError,
)

BLANK = 0
BLANK_SURFACE = "<blank>"

# Hard caps for the exhaustive oracles.
MAX_ORACLE_T = 8
MAX_ORACLE_L = 4
MAX_ORACLE_V = 5


@dataclass(frozen=True)
class Vocabulary:
    """Partitioned bilingual symbol table: id 0 is blank, then M units, then E units."""

    m_surfaces: tuple = ()
    e_surfaces: tuple = ()
    _surface_to_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        seen = {}
        for i, s in enumerate(self.surfaces):
            if s in seen:
                raise CsrtError(f"duplicate vocabulary surface {s!r}")
            seen[s] = i
        object.__setattr__(self, "_surface_to_id", seen)

    @property
    def n_m(self):
        return len(self.m_surfaces)

    @property
    def n_e(self):
        return len(self.e_surfaces)

    @property
    def size(self):
        """Number of non-blank units."""
        return self.n_m + self.n_e

    @property
    def surfaces(self):
        return (BLANK_SURFACE,) + tuple(self.m_surfaces) + tuple(self.e_surfaces)

    def m_ids(self):
        return tuple(range(1, self.n_m + 1))

    def e_ids(self):
        return tuple(range(self.n_m + 1, self.size + 1))

    def lang_ids(self, lang):
        return self.m_ids() if _check_lang(lang) == "M" else self.e_ids()

    def lang_of(self, unit_id):
        """'M' or 'E' for a unit id; None for blank."""
        if unit_id == BLANK:
            return None
        if 1 <= unit_id <= self.n_m:
            return "M"
        if self.n_m < unit_id <= self.size:
            return "E"
        raise CsrtError(f"unit id {unit_id} outside vocabulary of size {self.size}")

    def surface(self, unit_id):
        return self.surfaces[unit_id]

    def id_of(self, surface):
        try:
            return self._surface_to_id[surface]
        except KeyError:
            raise CsrtError(f"unknown vocabulary surface {surface!r}")

    def to_local(self, lang, unit_id):
        """Map a global unit id into a per-language head's column space.

        Column 0 is blank, columns 1..n are that language's units.
        """
        if unit_id == BLANK:
            return BLANK
        if self.lang_of(unit_id) != _check_lang(lang):
            raise CsrtError(f"unit {unit_id} is not in language {lang}")
        return unit_id if lang == "M" else unit_id - self.n_m

    def to_global(self, lang, local_id):
        if local_id == BLANK:
            return BLANK
        n = self.n_m if _check_lang(lang) == "M" else self.n_e
        if not 1 <= local_id <= n:
            raise CsrtError(f"local id {local_id} outside language {lang} of size {n}")
        return local_id if lang == "M" else local_id + self.n_m


def _check_lang(lang):
    if lang not in ("M", "E"):
        raise CsrtError(f"language must be 'M' or 'E', got {lang!r}")
    return lang


def collapse(z):
    """Merge maximal runs of identical non-blank symbols, then delete blanks."""
    out = []
    prev = None
    for s in z:
        if s != prev and s != BLANK:
            out.append(s)
        prev = s
    return tuple(out)


def compose(zm, ze):
    """Frame-wise merge of two monolingual alignment streams.

    A frame may be non-blank in at most one stream; a frame non-blank in
    both raises AlignmentConflictError with the offending frame index.
    """
    if len(zm) != len(ze):
        raise LengthMismatchError(f"compose: lengths {len(zm)} and {len(ze)} differ")
    out = []
    for t, (m, e) in enumerate(zip(zm, ze)):
        if m != BLANK and e != BLANK:
            raise AlignmentConflictError(t)
        out.append(m if m != BLANK else e)
    return tuple(out)


def decompose(z, vocab):
    """Split a bilingual alignment into its M-only and E-only constituents."""
    zm, ze = [], []
    for s in z:
        lang = vocab.lang_of(s)
        zm.append(s if lang == "M" else BLANK)
        ze.append(s if lang == "E" else BLANK)
    return tuple(zm), tuple(ze)


def mask_labels(y, lang, vocab):
    """Order-preserving restriction of a label sequence to one language."""
    _check_lang(lang)
    return tuple(u for u in y if vocab.lang_of(u) == lang)


def min_ctc_length(y):
    """Shortest alignment that collapses to y: length plus one blank per repeat."""
    repeats = sum(1 for a, b in zip(y, y[1:]) if a == b)
    return len(y) + repeats


def ctc_states(y):
    """The CTC state sequence of y: blank, y1, blank, y2, ..., yL, blank."""
    return (BLANK,) + tuple(s for u in y for s in (u, BLANK))


def _check_caps(T, L):
    if T > MAX_ORACLE_T or L > MAX_ORACLE_L:
        raise CapExceededError(
            f"enumeration capped at T<={MAX_ORACLE_T}, L<={MAX_ORACLE_L}; got T={T}, L={L}"
        )


def enumerate_ctc_alignments(y, T):
    """All length-T sequences that collapse to y. Exhaustive; capped.

    Only blank and the symbols of y can appear in such a sequence, so the
    filter runs over that restricted alphabet.
    """
    y = tuple(y)
    _check_caps(T, len(y))
    if T < min_ctc_length(y):
        raise InfeasibleTargetError(
            f"no length-{T} alignment exists for {y} (needs {min_ctc_length(y)})"
        )
    alphabet = (BLANK,) + tuple(sorted(set(y)))
    return {z for z in itertools.product(alphabet, repeat=T) if collapse(z) == y}


def enumerate_rnnt_paths(y, T):
    """All transducer paths for y over T frames, as (T+L)-step symbol tuples.

    A path interleaves the L emissions of y (in order) with T blanks; a
    blank advances time, an emission does not, and the final step is
    always the blank taken from frame T.
    """
    y = tuple(y)
    if T < 1:
        raise InfeasibleTargetError(f"transducer paths need T >= 1, got {T}")
    _check_caps(T, len(y))
    L = len(y)
    paths = set()
    # Choose which of the first T+L-1 steps are emissions; the last step is blank.
    for emit_positions in itertools.combinations(range(T + L - 1), L):
        path = [BLANK] * (T + L)
        for u, pos in enumerate(emit_positions):
            path[pos] = y[u]
        paths.add(tuple(path))
    return paths

