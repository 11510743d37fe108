"""Plain-text configuration: one `key = value` per line, `#` comments.

Every command-line flag has a key here, commands read the subset they
need, and unknown keys are rejected. parse -> serialize -> parse is a
fixpoint, which the tests rely on.
"""

from __future__ import annotations

import math

from .errors import ConfigError


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _int_at_least(low):
    def convert(text):
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value

    return convert


def _float(rule="", ok=lambda value: True):
    def convert(text):
        value = float(text)
        if not (math.isfinite(value) and ok(value)):
            raise ValueError(f"must be a finite number{rule}, got {text!r}")
        return value

    return convert


_NON_NEGATIVE = _float(" >= 0", lambda v: v >= 0)
_SMOOTHING = _float(" in [0, 1)", lambda v: 0 <= v < 1)


def _choice(*options):
    def convert(text):
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text

    return convert


# key -> (converter, default, help)
REGISTRY = {
    # common
    "spec": (_choice("default"), "default", "corpus preset name"),
    "seed": (_int_at_least(0), 0, "RNG seed for the command"),
    "out": (str, "", "output directory (or file, where noted)"),
    "force": (_bool, False, "allow writing into a non-empty output directory"),
    "data": (str, "", "corpus directory"),
    "init": (str, "", "checkpoint (file or run directory) to initialize from"),
    "model": (str, "", "trained checkpoint (file or run directory) to evaluate"),
    "split": (str, "test-cs", "corpus split name"),
    "beam": (_int_at_least(1), 10, "beam size for transducer decoding"),
    "utt": (str, "", "utterance id (dump-posteriors)"),
    "resume": (_bool, False, "continue training from the init checkpoint's saved state"),
    "trials": (_int_at_least(1), 200, "number of random instances for oracle/gradient sweeps"),
    # corpus generation
    "units-per-language": (int, 5, "units in each of V^M and V^E"),
    "feature-dim": (int, 8, "feature vector dimension"),
    "frames-min": (int, 2, "minimum frames per unit"),
    "frames-max": (int, 4, "maximum frames per unit"),
    "noise-sigma": (_NON_NEGATIVE, 0.1, "per-frame Gaussian noise level"),
    "utt-units-min": (int, 4, "minimum units per utterance"),
    "utt-units-max": (int, 8, "maximum units per utterance"),
    "cs-spans-max": (_int_at_least(1), 2, "maximum embedded-language spans per CS utterance"),
    "cs-matrix-fraction": (_float(), 0.7, "fraction of CS tokens in the matrix language"),
    "cross-lingual-offset": (_NON_NEGATIVE, 0.0, "distance of each E prototype from its M twin (0 = independent)"),
    "train-count": (int, 500, "training utterances per corpus"),
    "dev-count": (int, 50, "dev utterances per corpus"),
    "test-count": (int, 100, "test utterances per corpus"),
    # model dimensions
    "variant": (
        _choice("conditional", "conditional-ls", "three-encoder", "vanilla"),
        "conditional-ls",
        "model variant",
    ),
    "hidden-dim": (_int_at_least(1), 32, "encoder hidden width"),
    "vanilla-hidden-dim": (_int_at_least(1), 48, "encoder width for the single-encoder variant"),
    "encoder-layers": (_int_at_least(1), 2, "encoder blocks per stack"),
    "encoder-mixing": (_choice("conv", "recurrent"), "conv", "temporal mixing kind"),
    "embed-dim": (_int_at_least(1), 16, "decoder label embedding size"),
    "decoder-dim": (_int_at_least(1), 32, "prediction network hidden size"),
    "joint-dim": (_int_at_least(1), 32, "joint network hidden size"),
    # training
    "lambda": (_float(), 0.5, "transducer weight in the language-separation loss"),
    "learning-rate": (_NON_NEGATIVE, 0.004, "peak learning rate"),
    "schedule": (_choice("constant", "warmup-inverse-sqrt"), "constant", "LR schedule"),
    "warmup-steps": (int, 200, "warmup length for warmup-inverse-sqrt"),
    "epochs": (int, 12, "training epochs"),
    "batch-size": (int, 8, "utterances per optimizer step"),
    "beta1": (_SMOOTHING, 0.9, "first-moment smoothing (0 disables)"),
    "beta2": (_SMOOTHING, 0.999, "second-moment smoothing (0 disables)"),
    "moment-eps": (_float(" > 0", lambda v: v > 0), 1e-8, "denominator floor for second-moment scaling"),
    "grad-clip": (_NON_NEGATIVE, 5.0, "global-norm gradient clip (0 disables)"),
    "fine-tune-data": (_choice("cs-only", "cs+mono"), "cs+mono", "fine-tuning data mix"),
    "mono-mix-ratio": (_float(), 2.0 / 3.0, "probability a fine-tuning batch is monolingual"),
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
