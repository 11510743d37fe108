"""Synthetic two-language toy corpus: generation, file formats, loading.

Each vocabulary unit gets a fixed prototype vector; a frame is its unit's
prototype plus iid Gaussian noise. Utterances are unit sequences, either
monolingual or code-switched (matrix language M with one or two contiguous
embedded E spans). Everything is a pure function of the CorpusSpec, so a
seed reproduces a corpus byte for byte.

On-disk layout under the corpus directory:

    vocab.tsv                 id <TAB> surface <TAB> M|E   (id 0 = <blank>)
    manifest.tsv              split <TAB> transcripts <TAB> feats dir <TAB> spans
    <split>/transcripts.tsv   utt-id <TAB> space-joined surfaces
    <split>/spans.tsv         utt-id <TAB> start:end:lang ...
    <split>/feats/<utt>.csft  magic "CSFT", u32 T, u32 D, T*D float32 LE
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .alignments import Vocabulary
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


@dataclass(frozen=True)
class CorpusSpec:
    units_per_language: int = 5
    feature_dim: int = 8
    frames_min: int = 2
    frames_max: int = 4
    noise_sigma: float = 0.1
    utt_units_min: int = 4
    utt_units_max: int = 8
    cs_spans_max: int = 2
    cs_matrix_fraction: float = 0.7
    # 0 keeps the languages' prototypes independent; > 0 places each E
    # prototype at that distance from its M counterpart, i.e. the two
    # languages share a confusable acoustic space.
    cross_lingual_offset: float = 0.0
    train_count: int = 500
    dev_count: int = 50
    test_count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.units_per_language < 2 or self.feature_dim < 1:
            raise CsrtError("corpus spec: need >= 2 units per language and >= 1 feature dim")
        if not (0 < self.frames_min <= self.frames_max):
            raise CsrtError("corpus spec: empty frames-per-unit range")
        if not (0 < self.utt_units_min <= self.utt_units_max):
            raise CsrtError("corpus spec: empty utterance length range")
        if self.noise_sigma < 0 or not 0 < self.cs_matrix_fraction < 1:
            raise CsrtError("corpus spec: sigma must be >= 0 and matrix fraction in (0, 1)")
        if self.cross_lingual_offset < 0:
            raise CsrtError("corpus spec: cross-lingual offset must be >= 0")
        if min(self.train_count, self.dev_count, self.test_count) <= 0:
            raise CsrtError("corpus spec: split counts must be positive")


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
    splits: dict = field(default_factory=dict)

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
    k = min(k, n_e)
    # Split the embedded mass into k contiguous spans placed in distinct
    # gaps of the matrix token sequence, so spans never touch each other.
    sizes = np.full(k, n_e // k)
    sizes[: n_e % k] += 1
    n_m = n - n_e
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
    """Write a full corpus directory; deterministic in the spec. Returns it loaded."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = build_vocabulary(spec.units_per_language)
    prototypes = unit_prototypes(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))

    with open(out / "vocab.tsv", "w", encoding="utf-8") as fh:
        for uid, surface in enumerate(vocab.surfaces):
            lang = vocab.lang_of(uid) if uid else "-"
            fh.write(f"{uid}\t{surface}\t{lang}\n")

    counts = {"train": spec.train_count, "dev": spec.dev_count, "test": spec.test_count}
    manifest_lines = []
    for split in SPLITS:
        phase, _, kind = split.partition("-")
        split_dir = out / split
        feat_dir = split_dir / "feats"
        feat_dir.mkdir(parents=True, exist_ok=True)
        t_lines, s_lines = [], []
        for i in range(counts[phase]):
            utt = _gen_utterance(rng, spec, vocab, prototypes, kind)
            utt.uid = f"{split}-{i:05d}"
            t_lines.append(utt.uid + "\t" + " ".join(vocab.surface(u) for u in utt.labels))
            s_lines.append(
                utt.uid + "\t" + " ".join(f"{a}:{b}:{lang}" for a, b, lang in utt.spans)
            )
            write_features(feat_dir / f"{utt.uid}.csft", utt.features)
        (split_dir / "transcripts.tsv").write_text("\n".join(t_lines) + "\n", encoding="utf-8")
        (split_dir / "spans.tsv").write_text("\n".join(s_lines) + "\n", encoding="utf-8")
        manifest_lines.append(f"{split}\t{split}/transcripts.tsv\t{split}/feats\t{split}/spans.tsv")
    (out / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return load_corpus(out)


def write_features(path, features):
    arr = np.ascontiguousarray(features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def read_features(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CorpusFormatError(f"cannot read feature file {path}: {exc}")
    if raw[:4] != FEATURE_MAGIC:
        raise CorpusFormatError(f"{path}: bad feature-file magic")
    if len(raw) < 12:
        raise CorpusFormatError(f"{path}: truncated feature header")
    T, D = struct.unpack("<II", raw[4:12])
    if T == 0:
        raise CorpusFormatError(f"{path}: zero frames")
    body = raw[12:]
    if len(body) != T * D * 4:
        raise CorpusFormatError(f"{path}: expected {T}x{D} float32 payload, got {len(body)} bytes")
    frames = np.frombuffer(body, dtype="<f4")
    if not np.isfinite(frames).all():
        raise CorpusFormatError(f"{path}: non-finite feature value")
    return frames.astype(np.float64).reshape(T, D)


def _lines(path, where=""):
    """Numbered non-empty lines of a UTF-8 file; `where` prefixes its errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{where}{path}: not valid UTF-8 (byte {exc.start})")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise CorpusFormatError(f"{where}cannot read {path}: {exc}")
    return [(ln, line) for ln, line in enumerate(text.split("\n"), 1) if line]


def load_vocabulary(path):
    """Read vocab.tsv: ids run 0 (blank), then the M units, then the E units."""
    m, e = [], []
    for position, (ln, line) in enumerate(_lines(path)):
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(f"{path}:{ln}: expected 3 tab-separated fields")
        uid, surface, lang = parts
        try:
            uid = int(uid)
        except ValueError:
            raise CorpusFormatError(f"{path}:{ln}: unit id {uid!r} is not an integer")
        if uid != position:
            raise CorpusFormatError(
                f"{path}:{ln}: unit id {uid} is not its position {position}"
                " (ids run 0 for blank, then M units, then E units)"
            )
        if uid == 0:
            continue
        if lang not in ("M", "E"):
            raise CorpusFormatError(f"{path}:{ln}: unknown language tag {lang!r}")
        if lang == "M" and e:
            raise CorpusFormatError(f"{path}:{ln}: M unit {surface!r} after the E units")
        (m if lang == "M" else e).append(surface)
    return Vocabulary(m_surfaces=tuple(m), e_surfaces=tuple(e))


def _read_tsv_map(path, what, where):
    out = {}
    for ln, line in _lines(path, where):
        uid, tab, rest = line.partition("\t")
        if not tab:
            raise CorpusFormatError(f"{path}:{ln}: missing tab in {what} line")
        out[uid] = rest
    return out


def _tiles(spans, T):
    """Whether non-empty spans cover [0, T) in order, each starting where the last ended."""
    cursor = 0
    for a, b, _ in spans:
        if a != cursor or b <= a:
            return False
        cursor = b
    return cursor == T


def load_corpus(path):
    """Load a generated corpus directory back into memory; exact round trip."""
    root = Path(path)
    manifest = root / "manifest.tsv"
    vocab = load_vocabulary(root / "vocab.tsv")
    corpus = Corpus(vocab=vocab)
    for ln, line in _lines(manifest):
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusFormatError(f"{manifest}:{ln}: expected 4 tab-separated fields")
        split, t_rel, f_rel, s_rel = parts
        where = f"{manifest}:{ln}: "
        transcripts = _read_tsv_map(root / t_rel, "transcript", where)
        spans = _read_tsv_map(root / s_rel, "span", where)
        utts = []
        for uid, text in transcripts.items():
            labels = tuple(vocab.id_of(s) for s in text.split()) if text else ()
            feat_path = root / f_rel / f"{uid}.csft"
            try:
                feats = read_features(feat_path)
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"utterance {uid}: {exc}")
            span_list = []
            for token in spans.get(uid, "").split():
                try:
                    a, b, lang = token.split(":")
                    span_list.append((int(a), int(b), lang))
                except ValueError:
                    raise CorpusFormatError(
                        f"{root / s_rel}: utterance {uid}: malformed span {token!r}"
                        " (expected start:end:lang)"
                    )
            if span_list and not _tiles(span_list, feats.shape[0]):
                raise CorpusFormatError(
                    f"{root / s_rel}: utterance {uid}: spans do not tile frames"
                    f" [0, {feats.shape[0]}) in order"
                )
            utts.append(
                Utterance(uid=uid, features=feats, labels=labels, spans=tuple(span_list))
            )
        corpus.splits[split] = utts
    return corpus
