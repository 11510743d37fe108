"""Plain-text configuration: one `key = value` per line, `#` comments.

Every command-line flag has a key here, and unknown keys are rejected.
parse -> serialize -> parse is a fixpoint, which the tests rely on.

REGISTRY states each setting's type, range and default once, VARIANT_FAMILY
the model variants (the `variant` key's choices) and their families. The
settings dataclasses name each field after its key (`_` for `-`), are built
by `from_values` and check their fields with the same converters; those
made by `settings` also take their keys' defaults.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigError


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_in(low, high=math.inf):
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        if value > high:
            raise ValueError(f"must be <= {high}, got {value}")
        return value

    return convert


def _float(rule, ok):
    def convert(text):
        value = float(text)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"must be a finite number{rule}, got {text!r}")
        return value

    return convert


_NON_NEGATIVE = _float(" >= 0", lambda v: v >= 0)
_SMOOTHING = _float(" in [0, 1)", lambda v: 0 <= v < 1)
_UNIT = _float(" in [0, 1]", lambda v: 0 <= v <= 1)


def _choice(*options):
    def convert(text):
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return convert


# Architecture family per model variant; conditional and conditional-ls share one
# architecture (they differ only in the fine-tuning loss), which is what lets a
# single pre-trained checkpoint initialize either one.
VARIANT_FAMILY = {
    "conditional": "dual",
    "conditional-ls": "dual",
    "three-encoder": "triple",
    "vanilla": "single",
}

# key -> (converter, default, help)
REGISTRY = {
    # common
    "seed": (_int_in(0), 0, "RNG seed for the command"),
    "out": (str, "", "output directory (or file, where noted)"),
    "force": (_bool, False, "allow writing into a non-empty output directory"),
    "data": (str, "", "corpus directory"),
    "init": (str, "", "checkpoint (file or run directory) to initialize from"),
    "model": (str, "", "trained checkpoint (file or run directory) to evaluate"),
    "split": (str, "test-cs", "corpus split name"),
    "beam": (_int_in(1), 10, "beam size for transducer decoding"),
    "utt": (str, "", "utterance id (dump-posteriors)"),
    "resume": (_bool, False, "continue training from the init checkpoint's saved state"),
    "trials": (_int_in(1), 200, "number of random instances for oracle/gradient sweeps"),
    # corpus generation
    "units-per-language": (_int_in(2, 100_000), 5, "units in each of V^M and V^E"),
    "feature-dim": (_int_in(1, 1024), 8, "feature vector dimension"),
    "frames-min": (_int_in(1, 1000), 2, "minimum frames per unit"),
    "frames-max": (_int_in(1, 1000), 4, "maximum frames per unit"),
    "noise-sigma": (_NON_NEGATIVE, 0.1, "per-frame Gaussian noise level"),
    "utt-units-min": (_int_in(2, 1000), 4, "minimum units per utterance (a CS one needs both languages)"),
    "utt-units-max": (_int_in(1, 1000), 8, "maximum units per utterance"),
    "cs-spans-max": (_int_in(1, 1000), 2, "maximum embedded-language spans per CS utterance"),
    "cs-matrix-fraction": (_float(" in (0, 1)", lambda v: 0 < v < 1), 0.7, "fraction of CS tokens in the matrix language"),
    "cross-lingual-offset": (_NON_NEGATIVE, 0.0, "distance of each E prototype from its M twin (0 = independent)"),
    "train-count": (_int_in(1, 50_000), 500, "training utterances per corpus"),
    "dev-count": (_int_in(1, 50_000), 50, "dev utterances per corpus"),
    "test-count": (_int_in(1, 50_000), 100, "test utterances per corpus"),
    # model dimensions
    "variant": (_choice(*VARIANT_FAMILY), "conditional-ls", "model variant"),
    "hidden-dim": (_int_in(1, 2048), 32, "encoder hidden width"),
    "encoder-layers": (_int_in(1, 256), 2, "encoder blocks per stack"),
    "encoder-mixing": (_choice("conv", "recurrent"), "conv", "temporal mixing kind"),
    "embed-dim": (_int_in(1, 2048), 16, "decoder label embedding size"),
    "decoder-dim": (_int_in(1, 2048), 32, "prediction network hidden size"),
    "joint-dim": (_int_in(1, 2048), 32, "joint network hidden size"),
    # training
    "lambda": (_UNIT, 0.5, "transducer weight in the language-separation loss"),
    "learning-rate": (_NON_NEGATIVE, 0.004, "peak learning rate"),
    "warmup-steps": (_int_in(0), 0, "warmup steps, then inverse-sqrt decay (0: constant learning rate)"),
    "epochs": (_int_in(0), 12, "training epochs"),
    "batch-size": (_int_in(1), 8, "utterances per optimizer step"),
    "beta1": (_SMOOTHING, 0.9, "first-moment smoothing (0 disables)"),
    "beta2": (_SMOOTHING, 0.999, "second-moment smoothing (0 disables)"),
    "moment-eps": (_float(" > 0", lambda v: v > 0), 1e-8, "denominator floor for second-moment scaling"),
    "grad-clip": (_NON_NEGATIVE, 5.0, "global-norm gradient clip (0 disables)"),
    "mono-mix-ratio": (_UNIT, 2.0 / 3.0, "probability a fine-tuning batch is monolingual (0: code-switched data only)"),
}


def defaults():
    return {key: spec[1] for key, spec in REGISTRY.items()}


def convert(key, text):
    if key not in REGISTRY:
        raise ConfigError(f"unknown config key {key!r}")
    conv = REGISTRY[key][0]
    try:
        return conv(text) if isinstance(text, str) else conv(str(text))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}")


def parse_config_text(text, path="<config>"):
    values = {}
    for ln, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{path}:{ln}: repeated key {key!r}")
        try:
            values[key] = convert(key, value.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{ln}: {exc}")
    return values


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 (byte {exc.start})")
    return parse_config_text(text, path=str(path))


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(values):
    """Canonical text: sorted keys, one per line. parse(serialize(v)) == v."""
    lines = []
    for key in sorted(values):
        if key not in REGISTRY:
            raise ConfigError(f"unknown config key {key!r}")
        lines.append(f"{key} = {_format_value(values[key])}")
    return "\n".join(lines) + "\n"


_FIELD_KEYS = {"lam": "lambda", "n_m": "units-m", "n_e": "units-e"}


def key_of(name):
    """A settings-dataclass field's key: its name with `-` for `_`, unless _FIELD_KEYS has it."""
    return _FIELD_KEYS.get(name, name.replace("_", "-"))


def from_values(cls, values, **given):
    """Build dataclass `cls` from resolved values; `given` fields bypass the keys."""
    taken = {f.name: values[key_of(f.name)] for f in dataclasses.fields(cls) if f.name not in given}
    return cls(**taken, **given)


def check_fields(obj):
    """Run each field's registry converter on its value; fields without a key pass."""
    for f in dataclasses.fields(obj):
        if key_of(f.name) in REGISTRY:
            convert(key_of(f.name), getattr(obj, f.name))


def settings(cls):
    """Make `cls` a frozen dataclass whose fields default to their keys' REGISTRY defaults;
    it gains `from_values`, and construction runs check_fields before its own __post_init__."""
    for name in cls.__annotations__:
        setattr(cls, name, REGISTRY[key_of(name)][1])
    own = getattr(cls, "__post_init__", lambda self: None)

    def __post_init__(self):
        check_fields(self)
        own(self)

    cls.__post_init__, cls.from_values = __post_init__, classmethod(from_values)
    return dataclasses.dataclass(frozen=True)(cls)


def resolved(file_values=None, overrides=None):
    """Layer defaults, then a config file, then explicit overrides."""
    out = defaults()
    for layer in (file_values, overrides):
        if layer:
            for key, value in layer.items():
                if key not in REGISTRY:
                    raise ConfigError(f"unknown config key {key!r}")
                out[key] = value
    return out
