"""Synthetic two-language toy corpus: generation, file formats, loading.

Each vocabulary unit gets a fixed prototype vector; a frame is its unit's
prototype plus iid Gaussian noise. Utterances are unit sequences, either
monolingual or code-switched (matrix language M with up to cs-spans-max
contiguous embedded E spans). Everything is a pure function of the
CorpusSpec, so a seed reproduces a corpus byte for byte. The spec's fields
are the corpus-generation keys of config.REGISTRY, which states their ranges
and defaults (config.settings); constructing a CorpusSpec applies the checks.

On-disk layout under the corpus directory, two files per split:

    vocab.tsv           id <TAB> surface <TAB> M|E   (line 1: 0 <TAB> <blank> <TAB> -)
    <split>/utts.tsv    utt-id <TAB> space-joined surfaces <TAB> start:end:M|E ...
                        (non-empty spans tiling the utterance's T frames [0, T) in order)
    <split>/feats.csft  magic "CSFT", u32 N, u32 D, N*D float32 LE (D >= 1): the split's
                        frames, utterance after utterance in utts.tsv order, N = sum of T
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .alignments import BLANK_SURFACE, Vocabulary
from .errors import CorpusFormatError, CsrtError

FEATURE_MAGIC = b"CSFT"

SPLITS = (
    "train-mono-m",
    "dev-mono-m",
    "test-mono-m",
    "train-mono-e",
    "dev-mono-e",
    "test-mono-e",
    "train-cs",
    "dev-cs",
    "test-cs",
)


@config.settings
class CorpusSpec:
    units_per_language: int
    feature_dim: int
    frames_min: int
    frames_max: int
    noise_sigma: float
    utt_units_min: int
    utt_units_max: int
    cs_spans_max: int
    cs_matrix_fraction: float
    # 0 keeps the languages' prototypes independent; > 0 places each E
    # prototype at that distance from its M counterpart, i.e. the two
    # languages share a confusable acoustic space.
    cross_lingual_offset: float
    train_count: int
    dev_count: int
    test_count: int
    seed: int

    def __post_init__(self):
        if self.frames_min > self.frames_max:
            raise CsrtError(f"frames-min {self.frames_min} > frames-max {self.frames_max}")
        if self.utt_units_min > self.utt_units_max:
            raise CsrtError(
                f"utt-units-min {self.utt_units_min} > utt-units-max {self.utt_units_max}"
            )


@dataclass
class Utterance:
    uid: str
    features: np.ndarray  # (T, D) float64
    labels: tuple  # global unit ids
    spans: tuple = ()  # ((start_frame, end_frame, lang), ...), tiling [0, T)

    @property
    def n_frames(self):
        return self.features.shape[0]


@dataclass
class Corpus:
    vocab: Vocabulary
    splits: dict
    feature_dim: int  # the width of every utterance's frames

    def split(self, name):
        try:
            return self.splits[name]
        except KeyError:
            raise CsrtError(f"corpus has no split {name!r} (has {sorted(self.splits)})")


def build_vocabulary(units_per_language):
    n = units_per_language
    return Vocabulary(
        m_surfaces=tuple(f"m{i}" for i in range(1, n + 1)),
        e_surfaces=tuple(f"e{i}" for i in range(1, n + 1)),
    )


def unit_prototypes(spec):
    """Prototype vectors, one row per unit id 1..2n, from one seeded draw.

    M units occupy the first `units_per_language` rows and E units the
    rest, so regenerating with more E units never changes the M rows.
    With a cross-lingual offset, E prototype i sits at that distance from
    M prototype i instead of being an independent draw.
    """
    rng = np.random.default_rng(spec.seed)
    protos = rng.standard_normal((2 * spec.units_per_language, spec.feature_dim))
    if spec.cross_lingual_offset > 0:
        n = spec.units_per_language
        direction = protos[n:]
        direction = direction / np.linalg.norm(direction, axis=1, keepdims=True)
        protos[n:] = protos[:n] + spec.cross_lingual_offset * direction
    return protos


def _sample_unit(rng, ids, prev):
    choices = [u for u in ids if u != prev]
    return int(choices[rng.integers(len(choices))])


def _cs_token_languages(rng, spec, n):
    """Label positions of one CS utterance as 'M'/'E', with contiguous E spans."""
    n_e = max(1, int(round((1.0 - spec.cs_matrix_fraction) * n)))
    n_e = min(n_e, n - 1)
    k = int(rng.integers(1, spec.cs_spans_max + 1))
    n_m = n - n_e
    # Split the embedded mass into k contiguous spans placed in distinct
    # gaps of the matrix token sequence, so spans never touch each other.
    k = min(k, n_e, n_m + 1)
    sizes = np.full(k, n_e // k)
    sizes[: n_e % k] += 1
    gaps = sorted(rng.choice(n_m + 1, size=k, replace=False).tolist())
    langs = []
    for gap_index in range(n_m + 1):
        if gap_index in gaps:
            langs.extend("E" * int(sizes[gaps.index(gap_index)]))
        if gap_index < n_m:
            langs.append("M")
    return langs


def _gen_utterance(rng, spec, vocab, prototypes, kind):
    n = int(rng.integers(spec.utt_units_min, spec.utt_units_max + 1))
    if kind == "cs":
        token_langs = _cs_token_languages(rng, spec, n)
    else:
        token_langs = [("M" if kind == "mono-m" else "E")] * n
    labels = []
    prev = None
    for lang in token_langs:
        # No immediate unit repeats: adjacent identical prototypes carry no
        # acoustic boundary cue, which would make the task unsolvable.
        prev = _sample_unit(rng, vocab.lang_ids(lang), prev)
        labels.append(prev)
    frames = []
    spans = []
    cursor = 0
    span_start, span_lang = 0, token_langs[0]
    for i, unit in enumerate(labels):
        n_frames = int(rng.integers(spec.frames_min, spec.frames_max + 1))
        block = prototypes[unit - 1][None, :] + spec.noise_sigma * rng.standard_normal(
            (n_frames, spec.feature_dim)
        )
        frames.append(block)
        if token_langs[i] != span_lang:
            spans.append((span_start, cursor, span_lang))
            span_start, span_lang = cursor, token_langs[i]
        cursor += n_frames
    spans.append((span_start, cursor, span_lang))
    features = np.concatenate(frames, axis=0)
    return Utterance(uid="", features=features, labels=tuple(labels), spans=tuple(spans))


def gen_corpus(spec, out_dir):
    """Write a full corpus directory; deterministic in the spec. Returns it loaded.

    Every utterance is drawn before anything is written, so a spec whose frames
    a float32 feature file cannot hold is refused with nothing on disk.
    """
    vocab = build_vocabulary(spec.units_per_language)
    with np.errstate(over="ignore", invalid="ignore"):  # a frame out of range is refused below
        prototypes = unit_prototypes(spec)
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
        drawn = {split: [_gen_utterance(rng, spec, vocab, prototypes, split.partition("-")[2])
                         for _ in range(getattr(spec, split.partition("-")[0] + "_count"))]
                 for split in SPLITS}
    peak = max(np.abs(u.features).max() for utts in drawn.values() for u in utts)
    if not peak <= np.finfo(np.float32).max:
        raise CsrtError(f"generated frames reach {peak:.3g}, beyond float32: lower "
                        "noise-sigma or cross-lingual-offset")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "vocab.tsv", "w", encoding="utf-8") as fh:
        for uid, surface in enumerate(vocab.surfaces):
            lang = vocab.lang_of(uid) if uid else "-"
            fh.write(f"{uid}\t{surface}\t{lang}\n")

    for split, utts in drawn.items():
        (out / split).mkdir(exist_ok=True)
        lines = []
        for i, utt in enumerate(utts):
            utt.uid = f"{split}-{i:05d}"
            spans = " ".join(f"{a}:{b}:{lang}" for a, b, lang in utt.spans)
            lines.append(f"{utt.uid}\t{' '.join(map(vocab.surface, utt.labels))}\t{spans}\n")
        (out / split / "utts.tsv").write_text("".join(lines), encoding="utf-8")
        write_features(out / split / "feats.csft", np.concatenate([u.features for u in utts]))
    return load_corpus(out)


def write_features(path, features):
    arr = np.ascontiguousarray(features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_features(path):
    """One (N, D) float64 array from a .csft file; N may be 0, D may not."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CorpusFormatError(f"cannot read feature file {path}: {exc}")
    if raw[:4] != FEATURE_MAGIC:
        raise CorpusFormatError(f"{path}: bad feature-file magic")
    if len(raw) < 12:
        raise CorpusFormatError(f"{path}: truncated feature header")
    N, D = struct.unpack("<II", raw[4:12])
    if D == 0:
        raise CorpusFormatError(f"{path}: zero features per frame")
    body = raw[12:]
    if len(body) != N * D * 4:
        raise CorpusFormatError(f"{path}: expected {N}x{D} float32 payload, got {len(body)} bytes")
    frames = np.frombuffer(body, dtype="<f4")
    if not np.isfinite(frames).all():
        raise CorpusFormatError(f"{path}: non-finite feature value")
    return frames.astype(np.float64).reshape(N, D)


def _lines(path):
    """Numbered non-empty lines of a UTF-8 file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not valid UTF-8 (byte {exc.start})")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CorpusFormatError(f"cannot read {path}: {exc}")
    return [(ln, line) for ln, line in enumerate(text.split("\n"), 1) if line]


def load_vocabulary(path):
    """Read vocab.tsv: ids run 0 (blank), then the M units, then the E units."""
    m, e = [], []
    for position, (ln, line) in enumerate(_lines(path)):
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(f"{path}:{ln}: expected 3 tab-separated fields")
        uid, surface, lang = parts
        if not (uid.isascii() and uid.isdigit()):  # int() reads '1_0', '+3', '\u0663' too
            raise CorpusFormatError(f"{path}:{ln}: unit id {uid!r} is not an integer")
        uid = int(uid)
        if uid != position:
            raise CorpusFormatError(
                f"{path}:{ln}: unit id {uid} is not its position {position}"
                " (ids run 0 for blank, then M units, then E units)"
            )
        if uid == 0:
            if (surface, lang) != (BLANK_SURFACE, "-"):
                raise CorpusFormatError(f"{path}:{ln}: expected '0\\t<blank>\\t-', got {line!r}")
            continue
        if lang not in ("M", "E"):
            raise CorpusFormatError(f"{path}:{ln}: unknown language tag {lang!r}")
        if lang == "M" and e:
            raise CorpusFormatError(f"{path}:{ln}: M unit {surface!r} after the E units")
        if surface in (BLANK_SURFACE, *m, *e):
            raise CorpusFormatError(f"{path}:{ln}: duplicate vocabulary surface {surface!r}")
        (m if lang == "M" else e).append(surface)
    return Vocabulary(m_surfaces=tuple(m), e_surfaces=tuple(e))


def _span(token, where):
    try:
        a, b, lang = token.split(":")
        if lang in ("M", "E") and (a + b).isascii() and a.isdigit() and b.isdigit():
            return int(a), int(b), lang
    except ValueError:
        pass
    raise CorpusFormatError(f"{where}malformed span {token!r} (expected start:end:M|E)")


def _read_utts(path, vocab):
    """(uid, labels, spans) per line of a utts.tsv; the spans tile [0, T) in order, T >= 1."""
    rows, seen = [], set()
    for ln, line in _lines(path):
        where = f"{path}:{ln}: "
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(f"{where}expected 3 tab-separated fields")
        uid, text, span_text = parts
        if uid in seen:
            raise CorpusFormatError(f"{where}repeated utterance id {uid!r}")
        seen.add(uid)
        try:
            labels = tuple(vocab.id_of(s) for s in text.split())
        except CsrtError as exc:  # an unknown surface
            raise CorpusFormatError(f"{where}{exc}")
        spans = tuple(_span(token, where) for token in span_text.split())
        starts = [0] + [b for _, b, _ in spans[:-1]]
        if not spans or any(a != start or b <= a for (a, b, _), start in zip(spans, starts)):
            raise CorpusFormatError(f"{where}spans {span_text!r} do not tile frames [0, T) in "
                                    "order, each span non-empty")
        rows.append((uid, labels, spans))
    return rows


def load_corpus(path):
    """Load a generated corpus directory back into memory; exact round trip. An utterance's
    features are its rows of its split's frame matrix."""
    root = Path(path)
    vocab = load_vocabulary(root / "vocab.tsv")
    splits = {}
    first = None  # (path, width) of the first feature file; every one must have that width
    for split in SPLITS:
        utts_path, feats_path = root / split / "utts.tsv", root / split / "feats.csft"
        rows = _read_utts(utts_path, vocab)
        frames = read_features(feats_path)
        first = first or (feats_path, frames.shape[1])
        if frames.shape[1] != first[1]:
            raise CorpusFormatError(f"{feats_path} has {frames.shape[1]} features per frame, "
                                    f"{first[0]} has {first[1]}")
        ends = list(itertools.accumulate((spans[-1][1] for _, _, spans in rows), initial=0))
        if frames.shape[0] != ends[-1]:
            raise CorpusFormatError(f"{feats_path} has {frames.shape[0]} frames, but the spans "
                                    f"of {utts_path} cover {ends[-1]}")
        splits[split] = [Utterance(uid=uid, features=frames[a:b], labels=labels, spans=spans)
                         for (uid, labels, spans), a, b in zip(rows, ends, ends[1:])]
    if not any(splits.values()):
        raise CorpusFormatError(f"corpus {root} has no utterances")
    return Corpus(vocab=vocab, splits=splits, feature_dim=first[1])
