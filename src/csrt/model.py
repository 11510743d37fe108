"""Model zoo: monolingual encoders with CTC heads, additive fusion, a
recurrent prediction network, and the joint network, assembled into the
single-, dual- and triple-encoder families of config.VARIANT_FAMILY.

All parameters live in one float64 vector, `Model.vec`, in `_param_layout`
order, however a checkpoint stored them. `params` (`ParamViews`) views each
block and, per layer and weight kind, an (n_enc, ...) stack of the encoders'
blocks; a step's gradient and the Adam moments are vectors of that layout,
viewed alike. The layer code runs every encoder at once over the stacks;
pre-training packs its batch along rows, one language per encoder (`subnets`).
The components take a `bound` dict and thread it through; there is no
whole-model forward, each loss calls the ones it reads (see training.py).
`bound` is either `bind`'s tape leaves, which training records, or
`params` itself: tape-free inference runs the same layer code over the
ops' numpy forwards (`autodiff.arrays`, chosen by `_ops`) on plain arrays,
with bitwise the same values and no Tensor made. A conv encoder layer (its
numpy forward is its tape-free path) and the joint with its log-softmax are
each one hand-differentiated node, bitwise equal to the op-by-op graph; the
joint keeps only the tanh lattice and log-probs, and returns a Tensor either
way. Transducer search reads the prediction and joint networks' arrays from
`params` directly; `predict` and `joint` are what it is tested against.

Checkpoints are a self-describing binary format: magic "CSRT1", a
length-prefixed architecture fingerprint (canonical text, parseable back
into an Architecture), then named little-endian float64 blocks, each name
once, and nothing after the last. A save writes a temporary file beside
the target and moves it into place, so a failed save never leaves a
truncated checkpoint.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import config
from .alignments import _check_lang
from .autodiff import Tensor
from .errors import CsrtError, ShapeMismatchError

CHECKPOINT_MAGIC = b"CSRT1"


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
        if self.family not in config.VARIANT_FAMILY.values():
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
    """A model variant's architecture family (see config.VARIANT_FAMILY)."""
    return config.VARIANT_FAMILY[config.convert("variant", variant)]


def _param_layout(arch, hidden_dim=None):
    """(name, shape, fan_in) of every parameter block in draw order; biases have fan_in None.
    `hidden_dim`, if given, stands in for the architecture's own, unchecked."""
    h, d, j, v = hidden_dim or arch.hidden_dim, arch.decoder_dim, arch.joint_dim, arch.n_units + 1
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


def param_count(arch, hidden_dim=None):
    """Number of parameters of `arch` (at `hidden_dim`, if given), read off its layout without
    allocating them."""
    return sum(math.prod(shape) for _, shape, _ in _param_layout(arch, hidden_dim))


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


class ParamViews(dict):
    """Views of `vec`, a float64 vector in `_param_layout` order (the parameters, a gradient or
    an Adam moment): each block by name, in layout order, and in `stacks`, also read by name,
    each encoder stack `encs.<layer>.<kind>`, an (n_enc, ...) view of the encoders' blocks of
    that kind (a bias as (n_enc, 1, H), to add to rows). A block is written in place."""

    def __init__(self, arch, vec):
        views, first, lo, enc0 = {}, [], 0, f"{arch.encoder_names[0]}."
        for name, shape, _ in _param_layout(arch):
            n = math.prod(shape)
            views[name] = vec[lo : lo + n].reshape(shape)
            if name.startswith(enc0):
                first.append((name.partition(".")[2], lo, n, (1,) * (2 - len(shape)) + shape))
            lo += n
        super().__init__(views)
        n_enc, size = len(arch.encoder_names), sum(n for _, _, n, _ in first)
        rows = vec[: n_enc * size].reshape(n_enc, size)  # the encoders share one layout
        self.arch, self.stacks = arch, {f"encs.{k}": rows[:, lo : lo + n].reshape((n_enc, *shape))
                                        for k, lo, n, shape in first}

    def __setitem__(self, name, value):
        if value is not self.get(name):  # `+=` gives back the view itself
            raise CsrtError(f"parameter block {name!r} is a view of the parameter vector;"
                            f" write it in place: params[{name!r}][...] = ...")

    def __missing__(self, name):
        return self.stacks[name]

    def roots(self):
        """The stacks, then the blocks outside the encoders: between them, all of `vec` once."""
        return {**self.stacks, **{k: v for k, v in self.items()
                                  if k.partition(".")[0] not in self.arch.encoder_names}}


def flat_params(arch, blocks):
    """A new float64 vector in `_param_layout` order holding `blocks` (name -> array)."""
    vec = np.zeros(param_count(arch))
    for name, view in ParamViews(arch, vec).items():
        view[...] = blocks[name]
    return vec


def _ops(weight):
    """The op set for a weight from `bound`: autodiff's ops for `bind`'s Tensors, their
    numpy forwards (`ad.arrays`) for the plain arrays of `Model.params`."""
    return ad if isinstance(weight, Tensor) else ad.arrays


def _recur(pre, u, starts=(0,)):
    """Rows of state_t = tanh(pre[t] + state_{t-1} @ u), from a zero state at each row of
    `starts` (no matmul there), so no state crosses from one packed slot into the next.

    The shared recurrence of the recurrent encoder and the prediction net;
    `pre` holds each step's input projection with its bias already added, as
    (T, H) rows or a stack's (n_enc, T, H).
    """
    ops, rows = _ops(u), []
    for t in range(pre.shape[-2]):
        step = ops.rows(pre, t, t + 1)
        rows.append(ops.tanh(step if t in starts else ops.add(step, ops.matmul(rows[-1], u))))
    return ops.concat(rows) if len(rows) > 1 else rows[0]


def _conv_layer(*inputs, dead=None):
    """A conv encoder layer, one node on Tensors: tanh(tanh(prev @ w_prev + h @ w_cur + next @
    w_next + b_mix) @ w_ff + b_ff), prev and next the rows around h's (zero past the ends); the
    rows a (n_enc, N) mask `dead` marks are 0 after it, their gradient 0 before it is read."""
    h, w_prev, w_cur, w_next, b_mix, w_ff, b_ff = (t.data if isinstance(t, Tensor) else t
                                                  for t in inputs)
    pad = np.zeros(h.shape[:-2] + (1, h.shape[-1]))
    padded = np.concatenate([pad, h, pad], axis=-2)
    mix = padded[..., :-2, :] @ w_prev
    mix += h @ w_cur
    mix += padded[..., 2:, :] @ w_next
    y = np.tanh(np.add(mix, b_mix, out=mix), out=mix) @ w_ff
    y = np.tanh(np.add(y, b_ff, out=y), out=y)
    if dead is not None:
        y[dead] = 0.0

    def grad_fn(g):  # the tape is single-use: mix becomes 1 - mix*mix once read
        g_ff = g * (1.0 - y * y)
        if dead is not None:
            g_ff[dead] = 0.0
        g_mix, g_w_ff = g_ff @ w_ff.mT, mix.mT @ g_ff
        g_mix *= np.subtract(1.0, np.multiply(mix, mix, out=mix), out=mix)
        g_h = None if inputs[0].tape is None else np.zeros(padded.shape)  # not for features
        if g_h is not None:
            g_h[..., 2:, :] = g_mix @ w_next.mT
            g_h[..., :-2, :] += g_mix @ w_prev.mT
            g_h = g_mix @ w_cur.mT + g_h[..., 1:-1, :]
        return (g_h, padded[..., :-2, :].mT @ g_mix, h.mT @ g_mix, padded[..., 2:, :].mT @ g_mix,
                g_mix.sum(axis=-2).reshape(b_mix.shape), g_w_ff,
                g_ff.sum(axis=-2).reshape(b_ff.shape))

    return ad.record_custom(y, inputs, grad_fn) if isinstance(inputs[-1], Tensor) else y


class Model:
    """A parameterized network of one architecture family.

    Immutable during forward/decoding; training mutates `params` between
    passes via the optimizer.
    """

    def __init__(self, arch, params=None, seed=0):
        self.arch = arch
        if params is None:
            params = init_params(arch, seed)
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
            if not np.isfinite(params[name]).all():
                raise CsrtError(f"parameter block {name!r} holds a non-finite value")
        self.vec = flat_params(arch, params)  # a copy: training updates it in place
        self.params = ParamViews(arch, self.vec)

    def bind(self, tape):
        """A leaf per array of `params.roots()`, by name, and the step's zero gradient vector,
        into whose views they add. Tape-free inference passes `params` instead."""
        grad = np.zeros(self.vec.size)
        grads = ParamViews(self.arch, grad)
        return {name: tape.leaf(arr, grads[name])
                for name, arr in self.params.roots().items()}, grad

    # --- components -----------------------------------------------------

    def _features(self, x, where):
        """x as a (T, input_dim) float64 array with T >= 1; ShapeMismatchError names `where`."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.arch.input_dim:
            raise ShapeMismatchError(
                f"{where}: features {x.shape} do not match input dim {self.arch.input_dim}")
        if x.shape[0] == 0:
            raise ShapeMismatchError(f"{where}: features have zero frames")
        return x

    def encode(self, bound, x, dead=None, starts=(0,)):
        """Every encoder's layers over the stacks, giving (n_enc, T, H): over one (T, input_dim)
        feature array that every encoder reads, or, with a `dead` row mask, over one packed
        (n_enc, N, input_dim) block per encoder (`subnets`), whose dead rows a conv layer zeroes
        and whose recurrence restarts at each row of `starts`.

        `bound` is `bind`'s Tensors, or `params` itself for tape-free inference on plain
        arrays; the components take either and return the same kind (see `_ops`).
        """
        if dead is None:
            x = self._features(x, "encode")
        ops = _ops(bound["encs.0.b_mix"])
        h = ops.lift(x)
        for layer in range(self.arch.encoder_layers):
            p = f"encs.{layer}"
            if self.arch.encoder_mixing == "conv":
                h = _conv_layer(h, *(bound[f"{p}.{k}"] for k in
                                     ("w_prev", "w_cur", "w_next", "b_mix", "w_ff", "b_ff")),
                                dead=dead)
            else:
                pre = ops.add(ops.matmul(h, bound[f"{p}.w_in"]), bound[f"{p}.b_mix"])
                mix = _recur(pre, bound[f"{p}.u"], starts)
                h = ops.tanh(ops.add(ops.matmul(mix, bound[f"{p}.w_ff"]), bound[f"{p}.b_ff"]))
        return h

    def _side(self, lang):
        """'m' or 'e', naming `lang`'s encoder and CTC head; CsrtError if the family has no
        CTC heads or `lang` is neither 'M' nor 'E'."""
        if not self.arch.has_ctc_heads:
            raise CsrtError(f"{self.arch.family} architecture has no CTC heads")
        return _check_lang(lang).lower()

    def ctc_head(self, bound, h, lang):
        """Per-frame log-posteriors over one language's units plus blank."""
        p = f"head_{self._side(lang)}"
        ops = _ops(bound[f"{p}.w"])
        return ops.log_softmax(ops.add(ops.matmul(h, bound[f"{p}.w"]), bound[f"{p}.b"]), axis=1)

    def subnets(self, bound, items):
        """Each (lang, features) item's CTC log-posteriors, in item order, from one encoder pass.

        M items are packed along rows on encoder 0 and E items on encoder 1 (a third encoder
        reads only dead rows). The k-th longest item of each language takes slot k; slots lie
        end to end, one zero separator row apart. An item's rows are a view of its head's.
        """
        sides = [self._side(lang) for lang, _ in items]
        xs = [self._features(x, f"subnets: item {i}") for i, (_, x) in enumerate(items)]
        slots = [sorted((i for i, s in enumerate(sides) if s == side), key=lambda i: -len(xs[i]))
                 for side in "me"]
        widths = [max(len(xs[at[k]]) for at in slots if k < len(at))
                  for k in range(max(map(len, slots)))]
        starts = np.cumsum([0] + [w + 1 for w in widths]).tolist()  # a slot and its separator
        x = np.zeros((len(self.arch.encoder_names), starts[-1] - 1, self.arch.input_dim))
        dead, spans = np.ones(x.shape[:2], dtype=bool), {}
        for e, at in enumerate(slots):
            for k, i in enumerate(at):
                spans[i] = starts[k], starts[k] + len(xs[i])
                x[e, slice(*spans[i])], dead[e, slice(*spans[i])] = xs[i], False
        h, ops = self.encode(bound, x, dead, starts[:-1]), _ops(bound["encs.0.b_mix"])
        heads = [self.ctc_head(bound, ops.select(h, e), "ME"[e]) if at else None
                 for e, at in enumerate(slots)]
        return [ops.rows(heads["me".index(s)], *spans[i]) for i, s in enumerate(sides)]

    def encode_fused(self, bound, x):
        """Sum of the encoders' (equal-shape) outputs, in encoder order, and the list of those
        outputs; one encoder's output is its own sum."""
        hs, ops = self.encode(bound, x), _ops(bound["encs.0.b_mix"])
        outs = [ops.select(hs, i) for i in range(len(self.arch.encoder_names))]
        return (outs[0] if len(outs) == 1 else ops.stack_sum(hs)), outs

    def predict(self, bound, y):
        """Decoder states for all prefixes of y: rows 0..L, row u = Decoder(y[:u])."""
        labels = (self.arch.start_token,) + tuple(y)
        for label in labels:
            if not 0 <= label <= self.arch.start_token:
                raise CsrtError(f"invalid label id {label} for decoder")
        ops = _ops(bound["dec.u"])
        emb = ops.index_select(bound["dec.embed"], labels)
        return _recur(ops.add(ops.matmul(emb, bound["dec.w_in"]), bound["dec.b"]), bound["dec.u"])

    def joint(self, bound, h_enc, h_dec):
        """Joint lattice (T, U, V+1) of log-distributions over units plus blank, a Tensor."""
        ws = [ad.lift(bound[f"joint.{k}"]) for k in ("w_enc", "b", "w_dec", "w_out", "b_out")]
        h_enc, h_dec, (w_enc, b, w_dec, w_out, b_out) = ad.lift(h_enc), ad.lift(h_dec), ws
        for h, w in ((h_enc, w_enc), (h_dec, w_dec)):
            if h.data.ndim != 2 or h.shape[1] != w.shape[0]:
                raise ShapeMismatchError(f"joint: shapes {h.shape} and {w.shape} do not conform")
        (T, _), (U, _), (J, V) = h_enc.shape, h_dec.shape, w_out.shape
        a = (h_enc.data @ w_enc.data + b.data)[:, None, :] + (h_dec.data @ w_dec.data)[None, :, :]
        a = np.tanh(a, out=a).reshape(T * U, J)
        y = ad.log_softmax_array(a @ w_out.data + b_out.data, axis=1)

        def grad_fn(g):
            g_logits = ad.log_softmax_vjp(y, g.reshape(T * U, V), axis=1)
            g_w_out = a.T @ g_logits  # first: the tape is single-use, so a becomes 1 - a*a
            g_a = g_logits @ w_out.data.T
            g_a *= np.subtract(1.0, np.multiply(a, a, out=a), out=a)
            g_e, g_d = (g_a.reshape(T, U, J).sum(axis=k) for k in (1, 0))
            return (g_e @ w_enc.data.T, g_d @ w_dec.data.T, h_enc.data.T @ g_e, g_e.sum(axis=0),
                    h_dec.data.T @ g_d, g_w_out, g_logits.sum(axis=0))

        return ad.record_custom(y.reshape(T, U, V), (h_enc, h_dec, *ws), grad_fn)

    @property
    def n_params(self):
        return self.vec.size


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


def load_checkpoint(path):
    """Read a checkpoint."""
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
    blocks = {}
    for _ in range(u32()):
        name = text("block name")
        if name in blocks:
            raise CsrtError(f"{path}: block {name!r} appears twice")
        shape = tuple(u32() for _ in range(u32()))
        payload = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8").astype(np.float64)
        if not np.isfinite(payload).all():
            raise CsrtError(f"{path}: block {name!r} holds a non-finite value")
        try:
            blocks[name] = payload.reshape(shape)
        except ValueError:  # more dims than numpy allows, or a size it cannot index
            raise CsrtError(f"{path}: block {name!r} has unusable shape {shape}")
    if off != len(raw):
        raise CsrtError(f"{path}: {len(raw) - off} bytes after the last block")
    return Checkpoint(fingerprint=fingerprint, blocks=blocks)
