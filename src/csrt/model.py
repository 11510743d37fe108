"""Model zoo: monolingual encoders with CTC heads, additive fusion, a
recurrent prediction network, and the joint network, assembled into the
single-, dual-, and triple-encoder architectures.

All parameters live in one flat name -> float64 array dict. A forward
pass binds that dict onto a tape (Model.bind) and threads the bound
tensors through the tensor ops. Training runs that path taped; bound
with tape=None it computes the same values without recording, which is
how inference runs the encoders and CTC heads. The recurrent encoder and
the prediction net share one recurrence (`_recur`). The joint and its
log-softmax are one hand-differentiated node, bitwise equal to the op-by-op
graph, that keeps only the tanh lattice and the log-probs. Transducer search
does not use the Tensor path for the prediction and joint networks: it
reads their arrays from `params` directly (see decoding.py); `predict` and
`joint` stay the reference that search is tested against.

Checkpoints are a self-describing binary format: magic "CSRT1", a
length-prefixed architecture fingerprint (canonical text, parseable back
into an Architecture), then named little-endian float64 blocks. A save
writes a temporary file beside the target and moves it into place, so a
failed save never leaves a truncated checkpoint.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import config
from .autodiff import Tensor
from .errors import CsrtError, FingerprintMismatchError, ShapeMismatchError

CHECKPOINT_MAGIC = b"CSRT1"

VARIANTS = ("conditional", "conditional-ls", "three-encoder", "vanilla")

# Architecture family per training variant; conditional and conditional-ls
# share one architecture (they differ only in the fine-tuning loss), which
# is what lets a single pre-trained checkpoint initialize either one.
_VARIANT_ARCH = {
    "conditional": "dual",
    "conditional-ls": "dual",
    "three-encoder": "triple",
    "vanilla": "single",
}


@dataclass(frozen=True)
class Architecture:
    """Everything that determines the parameter set of a model."""

    family: str  # single | dual | triple
    input_dim: int
    hidden_dim: int
    encoder_layers: int
    encoder_mixing: str  # conv | recurrent
    embed_dim: int
    decoder_dim: int
    joint_dim: int
    n_m: int
    n_e: int

    def __post_init__(self):
        config.check_fields(self)
        if self.family not in ("single", "dual", "triple"):
            raise CsrtError(f"unknown architecture family {self.family!r}")

    @property
    def n_units(self):
        return self.n_m + self.n_e

    @property
    def has_ctc_heads(self):
        return self.family != "single"

    @property
    def encoder_names(self):
        if self.family == "single":
            return ("enc",)
        if self.family == "dual":
            return ("enc_m", "enc_e")
        return ("enc_m", "enc_e", "enc_a")

    @property
    def start_token(self):
        return self.n_units + 1

    def fingerprint(self):
        """Canonical text of this architecture; stored in every checkpoint."""
        items = [(config.key_of(f.name), getattr(self, f.name)) for f in fields(self)]
        return "".join(f"{k} = {v}\n" for k, v in sorted(items))

    @staticmethod
    def from_fingerprint(text):
        parsed = {}
        for line in text.splitlines():
            key, _, value = line.partition("=")
            parsed[key.strip()] = value.strip()
        try:
            raw = [(f, parsed[config.key_of(f.name)]) for f in fields(Architecture)]
            return Architecture(**{f.name: int(v) if f.type == "int" else v for f, v in raw})
        except (KeyError, ValueError) as exc:
            raise CsrtError(f"unparseable architecture fingerprint: {exc}")


def variant_family(variant):
    try:
        return _VARIANT_ARCH[variant]
    except KeyError:
        raise CsrtError(f"unknown model variant {variant!r}; expected one of {VARIANTS}")


def _param_layout(arch):
    """(name, shape, fan_in) of every parameter block in draw order; biases have fan_in None."""
    h, d, j, v = arch.hidden_dim, arch.decoder_dim, arch.joint_dim, arch.n_units + 1
    layout = []
    for enc in arch.encoder_names:
        k = arch.input_dim
        for layer in range(arch.encoder_layers):
            p = f"{enc}.{layer}"
            if arch.encoder_mixing == "conv":
                layout += [(f"{p}.{w}", (k, h), 3 * k) for w in ("w_prev", "w_cur", "w_next")]
            else:
                layout += [(f"{p}.w_in", (k, h), k), (f"{p}.u", (h, h), h)]
            layout += [(f"{p}.b_mix", (h,), None), (f"{p}.w_ff", (h, h), h)]
            layout.append((f"{p}.b_ff", (h,), None))
            k = h
    if arch.has_ctc_heads:
        for head, n in (("head_m", arch.n_m), ("head_e", arch.n_e)):
            layout += [(f"{head}.w", (h, n + 1), h), (f"{head}.b", (n + 1,), None)]
    return layout + [
        ("dec.embed", (v + 1, arch.embed_dim), arch.embed_dim),
        ("dec.w_in", (arch.embed_dim, d), arch.embed_dim),
        ("dec.u", (d, d), d),
        ("dec.b", (d,), None),
        ("joint.w_enc", (h, j), h),
        ("joint.w_dec", (d, j), d),
        ("joint.b", (j,), None),
        ("joint.w_out", (j, v), j),
        ("joint.b_out", (v,), None),
    ]


def init_params(arch, seed):
    """Seeded parameter dict; draw order is the order of _param_layout."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, fan_in in _param_layout(arch):
        if fan_in is None:
            params[name] = np.zeros(shape)
        else:
            scale = 1.0 / np.sqrt(max(1, fan_in))
            params[name] = rng.uniform(-scale, scale, size=shape)
    return params


def n_params(params):
    return sum(int(a.size) for a in params.values())


def _recur(pre, u):
    """Rows of state_t = tanh(pre[t] + state_{t-1} @ u), from a zero state.

    The shared recurrence of the recurrent encoder and the prediction net;
    `pre` holds each step's input projection with its bias already added.
    """
    state = ad.tanh(ad.rows(pre, 0, 1))
    rows = [state]
    for t in range(1, pre.shape[0]):
        state = ad.tanh(ad.add(ad.rows(pre, t, t + 1), ad.matmul(state, u)))
        rows.append(state)
    return ad.concat(rows) if len(rows) > 1 else state


class Model:
    """A parameterized network of one architecture family.

    Immutable during forward/decoding; training mutates `params` between
    passes via the optimizer.
    """

    def __init__(self, arch, params=None, seed=0):
        self.arch = arch
        if params is None:
            self.params = init_params(arch, seed)
            return
        # A checkpoint's blocks come from outside; check them before any use.
        layout = {name: shape for name, shape, _ in _param_layout(arch)}
        for name in sorted(layout.keys() | params.keys()):
            if name not in params:
                raise CsrtError(f"parameter block {name!r} is missing")
            if name not in layout:
                raise CsrtError(f"unexpected parameter block {name!r}")
            if np.shape(params[name]) != layout[name]:
                raise CsrtError(f"parameter block {name!r} has shape {np.shape(params[name])},"
                                f" expected {layout[name]}")
        # Copy incoming arrays: training updates parameters in place, and a
        # caller's checkpoint must stay untouched.
        self.params = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def bind(self, tape):
        """Attach every parameter to a tape (or wrap tape-free for inference)."""
        if tape is None:
            return {k: Tensor(v) for k, v in self.params.items()}
        return {k: tape.leaf(v) for k, v in self.params.items()}

    # --- components -----------------------------------------------------

    def encode(self, bound, x, enc):
        """Run one encoder stack over a (T, input_dim) feature array."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ShapeMismatchError(
                f"encode: features {x.shape} do not match input dim {self.arch.input_dim}"
            )
        if x.shape[0] == 0:
            raise ShapeMismatchError("encode: features have zero frames")
        h = Tensor(x)
        T = x.shape[0]
        for layer in range(self.arch.encoder_layers):
            p = f"{enc}.{layer}"
            if self.arch.encoder_mixing == "conv":
                pad = Tensor(np.zeros((1, h.shape[1])))
                padded = ad.concat([pad, h, pad])
                prev, nxt = ad.rows(padded, 0, T), ad.rows(padded, 2, T + 2)
                mix = ad.matmul(prev, bound[f"{p}.w_prev"])
                mix = ad.add(mix, ad.matmul(h, bound[f"{p}.w_cur"]))
                mix = ad.add(mix, ad.matmul(nxt, bound[f"{p}.w_next"]))
                mix = ad.tanh(ad.add(mix, bound[f"{p}.b_mix"]))
            else:
                pre = ad.add(ad.matmul(h, bound[f"{p}.w_in"]), bound[f"{p}.b_mix"])
                mix = _recur(pre, bound[f"{p}.u"])
            h = ad.tanh(ad.add(ad.matmul(mix, bound[f"{p}.w_ff"]), bound[f"{p}.b_ff"]))
        return h

    def ctc_head(self, bound, h, lang):
        """Per-frame log-posteriors over one language's units plus blank."""
        if not self.arch.has_ctc_heads:
            raise CsrtError(f"{self.arch.family} architecture has no CTC heads")
        p = "head_m" if lang == "M" else "head_e"
        return ad.log_softmax(ad.add(ad.matmul(h, bound[f"{p}.w"]), bound[f"{p}.b"]), axis=1)

    def subnet(self, bound, x, lang):
        """One language's sub-net: its encoder and CTC head over a feature array."""
        h = self.encode(bound, x, "enc_m" if lang == "M" else "enc_e")
        return self.ctc_head(bound, h, lang)

    @staticmethod
    def fuse(*hs):
        """Elementwise sum of the monolingual (and optional third) encodings."""
        if len({h.shape for h in hs}) > 1:
            shapes = ", ".join(str(h.shape) for h in hs)
            raise ShapeMismatchError(f"fuse: shapes {shapes} differ")
        return functools.reduce(ad.add, hs)

    def encode_fused(self, bound, x):
        """Fused encoder sequence plus the per-language encodings (or Nones)."""
        hs = [self.encode(bound, x, enc) for enc in self.arch.encoder_names]
        if len(hs) == 1:
            return hs[0], None, None
        return self.fuse(*hs), hs[0], hs[1]

    def predict(self, bound, y):
        """Decoder states for all prefixes of y: rows 0..L, row u = Decoder(y[:u])."""
        labels = (self.arch.start_token,) + tuple(y)
        for label in labels:
            if not 0 <= label <= self.arch.start_token:
                raise CsrtError(f"invalid label id {label} for decoder")
        emb = ad.index_select(bound["dec.embed"], labels)
        return _recur(ad.add(ad.matmul(emb, bound["dec.w_in"]), bound["dec.b"]), bound["dec.u"])

    def joint(self, bound, h_enc, h_dec):
        """Joint lattice (T, U, V+1) of log-distributions over units plus blank."""
        ws = [bound[f"joint.{k}"] for k in ("w_enc", "b", "w_dec", "w_out", "b_out")]
        w_enc, b, w_dec, w_out, b_out = ws
        for h, w in ((h_enc, w_enc), (h_dec, w_dec)):
            if h.data.ndim != 2 or h.shape[1] != w.shape[0]:
                raise ShapeMismatchError(f"joint: shapes {h.shape} and {w.shape} do not conform")
        (T, _), (U, _), (J, V) = h_enc.shape, h_dec.shape, w_out.shape
        a = (h_enc.data @ w_enc.data + b.data)[:, None, :] + (h_dec.data @ w_dec.data)[None, :, :]
        a = np.tanh(a, out=a).reshape(T * U, J)
        logits = a @ w_out.data + b_out.data
        logits -= logits.max(axis=1, keepdims=True)
        y = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))

        def grad_fn(g):
            g = g.reshape(T * U, V)
            g_logits = g - np.exp(y) * g.sum(axis=1, keepdims=True)
            g_w_out = a.T @ g_logits  # first: the tape is single-use, so a becomes 1 - a*a
            g_a = g_logits @ w_out.data.T
            g_a *= np.subtract(1.0, np.multiply(a, a, out=a), out=a)
            g_e, g_d = (g_a.reshape(T, U, J).sum(axis=k) for k in (1, 0))
            return (g_e @ w_enc.data.T, g_d @ w_dec.data.T, h_enc.data.T @ g_e, g_e.sum(axis=0),
                    h_dec.data.T @ g_d, g_w_out, g_logits.sum(axis=0))

        return ad.record_custom(y.reshape(T, U, V), (h_enc, h_dec, *ws), grad_fn)

    def forward(self, bound, x, y):
        """All heads for one utterance on one tape.

        Returns {'rnnt': (T, L+1, V+1), 'ctc_m': ..., 'ctc_e': ...}; the CTC
        entries are None for the single-encoder architecture.
        """
        h_enc, h_m, h_e = self.encode_fused(bound, x)
        out = {
            "rnnt": self.joint(bound, h_enc, self.predict(bound, y)),
            "ctc_m": None,
            "ctc_e": None,
        }
        if self.arch.has_ctc_heads:
            out["ctc_m"] = self.ctc_head(bound, h_m, "M")
            out["ctc_e"] = self.ctc_head(bound, h_e, "E")
        return out

    @property
    def n_params(self):
        return n_params(self.params)


# --- checkpoint serialization -------------------------------------------


@dataclass
class Checkpoint:
    """Model parameters plus optimizer/train-state blocks and a fingerprint."""

    fingerprint: str
    blocks: dict

    def model_params(self):
        return {k: v for k, v in self.blocks.items() if not k.startswith(("opt.", "state."))}

    def architecture(self):
        return Architecture.from_fingerprint(self.fingerprint)


def write_atomic(path, write):
    """Run write(tmp) on a temporary file beside `path`, then move it into place.

    An existing target is replaced only by a complete file; on failure the
    temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, checkpoint):
    """Write a checkpoint atomically (see write_atomic)."""
    write_atomic(path, lambda tmp: _write_checkpoint(tmp, checkpoint))


def _write_checkpoint(path, checkpoint):
    fp = checkpoint.fingerprint.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(fp)))
        fh.write(fp)
        fh.write(struct.pack("<I", len(checkpoint.blocks)))
        for name in sorted(checkpoint.blocks):
            arr = np.asarray(checkpoint.blocks[name])
            shape = arr.shape  # before ascontiguousarray, which promotes 0-d to 1-d
            arr = np.ascontiguousarray(arr, dtype="<f8")
            nm = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nm)))
            fh.write(nm)
            fh.write(struct.pack("<I", len(shape)))
            for dim in shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path, expect_fingerprint=None):
    """Read a checkpoint; verify the fingerprint when one is expected."""
    with open(path, "rb") as fh:
        raw = fh.read()
    view = memoryview(raw)
    if bytes(view[:5]) != CHECKPOINT_MAGIC:
        raise CsrtError(f"{path}: not a checkpoint file (bad magic)")
    off = 5

    def take(n):
        nonlocal off
        if off + n > len(raw):
            raise CsrtError(f"{path}: truncated checkpoint")
        out = view[off : off + n]
        off += n
        return out

    def u32():
        return struct.unpack("<I", take(4))[0]

    def text(what):
        try:
            return bytes(take(u32())).decode("utf-8")
        except UnicodeDecodeError:
            raise CsrtError(f"{path}: checkpoint {what} is not valid UTF-8")

    fingerprint = text("fingerprint")
    if expect_fingerprint is not None and fingerprint != expect_fingerprint:
        raise FingerprintMismatchError(
            f"{path}: checkpoint fingerprint does not match the expected configuration"
        )
    blocks = {}
    for _ in range(u32()):
        name = text("block name")
        shape = tuple(u32() for _ in range(u32()))
        payload = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8").astype(np.float64)
        try:
            blocks[name] = payload.reshape(shape)
        except ValueError:  # more dims than numpy allows, or a size it cannot index
            raise CsrtError(f"{path}: block {name!r} has unusable shape {shape}")
    return Checkpoint(fingerprint=fingerprint, blocks=blocks)
