"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload is a closed loop in one process: set up SETUP_REPS times
(the last set-up is kept), then repeat one fixed unit of work, an
"iteration", until the run's seconds are spent. Every iteration of a run
does identical work, so exact counts and outputs must repeat across them.
Each workload times its work with the clock of its Calibrator, ticks the
calibration references between operations, outside every measured time,
and scales each measured time by the ticks around it (see calibrate.py).
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import re
import shutil
import statistics
from pathlib import Path

import numpy as np
from csrt import autodiff, config, data, decoding, losses, metrics, model, training
from csrt.errors import CsrtError

from calibrate import decode_refs, training_refs

SETUP_REPS = 5
# The training workloads tick their phase's reference once per log line,
# i.e. after every step; decode-cs ticks its pass's reference once per
# TICK_EVERY utterances.
TICK_EVERY = 4
# Fewest timed operations a run collects before it may stop, so that the
# 90th percentile has at least ten samples beyond it.
MIN_OPS = 100

# The training workloads generate these pools in the corpus world of seed
# 0; the workload seed then picks half of each train and dev split, one of
# each pair of neighbours in length order (see stratified_half).
TRAINING_SPECS = {
    # The default CorpusSpec shape (mean T ~ 18 frames, U ~ 6 labels) at
    # 100 train / 20 dev utterances per split, so that one pipeline
    # iteration takes about 2 s.
    "finetune-short": dict(train_count=200, dev_count=40, test_count=1),
    # 16-24 units of 3-6 frames: T ~ 88, U ~ 20, widely varied lengths,
    # at 64 train / 12 dev.
    "finetune-long": dict(
        utt_units_min=16, utt_units_max=24, frames_min=3, frames_max=6,
        train_count=128, dev_count=24, test_count=1,
    ),
}

DECODE_MODEL = Path(__file__).resolve().parent / "decode_model.csrt"
DECODE_MODEL_SHA256 = "7be0d235812ac5abf7561f7bc5e0e6a7488b95bb48d7760c74ab8277871b486a"
# decode-cs decodes DECODE_UTTS test-cs utterances, chosen by the workload
# seed, from the world (corpus seed 0) the fixed model was trained in.
# Decoding reads no training or dev split, so those are generated at a
# token size.
DECODE_SPEC = dict(seed=0, train_count=8, dev_count=8, test_count=300)
DECODE_UTTS = 200
DECODE_BEAM = 10
# Beam-10 MER of the fixed model was 0.160 on the whole pool and 0.146-0.181
# on the samples of seeds 0-199; a pass above this bound fails its check.
MER_BOUND = 0.25


def install(tracer):
    """Wrap the layer boundaries; untimed tracers only count the exact counts."""
    if tracer.timed:
        fn = tracer.wrap_function
        fn(data, "gen_corpus", "data.gen_corpus")
        fn(data, "load_corpus", "data.load_corpus")
        fn(model, "save_checkpoint", "model.save_checkpoint")
        fn(model, "load_checkpoint", "model.load_checkpoint")
        for method in ("encode", "encode_fused", "ctc_head", "predict", "joint"):
            tracer.wrap_method(model.Model, method, f"model.{method}")
        fn(losses, "ctc_loss", "losses.ctc_fwd")
        fn(losses, "rnnt_loss", "losses.rnnt_fwd")
        tracer.wrap_custom_grads(autodiff)
        fn(training, "optimizer_step", "training.optimizer_step")
        fn(training, "pretrain", "training.pretrain")
        fn(training, "finetune", "training.finetune")
        fn(decoding, "rnnt_decode", "decoding.rnnt_decode")
        fn(metrics, "mixed_error_rate", "metrics.mixed_error_rate")
    tracer.wrap_method(model.Model, "decoder_step", "model.decoder_step")
    tracer.wrap_method(model.Model, "joint_row", "model.joint_row")

    def count_tape(loss, *_):
        tracer.notes[tracer.ctx, "tape_nodes"] += len(loss.tape)

    tracer.wrap_function(autodiff, "backward", "autodiff.backward", before=count_tape)


def _rate(n, seconds):
    return n / seconds if seconds > 0 else float("nan")


class Result:
    """What one iteration measured and whether its outputs passed the checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.values = {}  # per-iteration scalars, e.g. throughputs
        self.ops_s = []  # per-operation latencies
        self.counts = {}  # exact counts, compared across iterations
        self.outputs = None  # digest of outputs, compared across iterations

    def check(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


class Workload:
    def __init__(self, name, seed, work_dir, cal):
        self.name = name
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.cal = cal
        if cal.enabled:
            self.add_refs(self.work_dir / "ref")

    def setup_all(self, tracer):
        """Set up SETUP_REPS times, each after the frozen reference set-up.

        Returns each set-up's seconds, calibrated.
        """
        cal = self.cal
        times = []
        for rep in range(SETUP_REPS):
            cal.tick("setup")
            out = self.work_dir / f"setup{rep}"
            start = cal.clock()
            self.setup(out)
            times.append((cal.last("setup"), cal.clock() - start))
            tracer.close_segment("setup")
            if rep:
                shutil.rmtree(self.work_dir / f"setup{rep - 1}", ignore_errors=True)
        return [cal.scale("setup", i, t) for i, t in times]


class Training(Workload):
    """CTC pre-training, then conditional-ls fine-tuning, each saved as the CLI does."""

    def add_refs(self, work_dir):
        training_refs(self.cal, TRAINING_SPECS[self.name], work_dir)

    def setup(self, out):
        data.gen_corpus(data.CorpusSpec(seed=0, **TRAINING_SPECS[self.name]), out / "corpus")
        corpus = data.load_corpus(out / "corpus")
        rng = np.random.default_rng(self.seed)
        self.splits = {
            name: stratified_half(corpus.split(name), rng)
            for name in ("train-cs", "train-mono-m", "train-mono-e", "dev-cs", "dev-mono-m",
                         "dev-mono-e")
        }
        self.vocab = corpus.vocab
        values = config.defaults()
        values["epochs"] = 1
        values["seed"] = self.seed
        self.tcfg = training.TrainingConfig.from_values(values)
        dim = self.splits["train-cs"][0].features.shape[1]
        self.arch = training.arch_for(values["variant"], values, self.vocab, dim)
        self.n_params = model.Model(self.arch, seed=self.seed).n_params
        self.out = out

    def describe(self):
        train = self.splits["train-cs"]
        return {
            "splits": {k: len(v) for k, v in sorted(self.splits.items())},
            "train_cs_mean_frames": float(np.mean([u.n_frames for u in train])),
            "train_cs_mean_labels": float(np.mean([len(u.labels) for u in train])),
            "batch_size": self.tcfg.batch_size,
            "variant": self.tcfg.variant,
            "n_params": self.n_params,
        }

    def _phase(self, tracer, ctx, run, path, res):
        """One training phase plus its checkpoint save; the log lines time the steps."""
        tracer.set_ctx(ctx)
        cal = self.cal
        clock = cal.clock
        # (end of the work logged, its line, end of the tick after it, that tick)
        lines = []

        def log(line):
            t = clock()
            tracer.close_segment("validate" if "val_loss=" in line else "step")
            cal.tick(ctx)
            lines.append((t, line, clock(), cal.last(ctx)))

        start = clock()
        try:
            ck = run(log)
        except CsrtError as exc:
            tracer.close_segment("loop")
            res.check(False, f"{ctx}: {exc}")
            return None
        tracer.close_segment("loop")
        model.save_checkpoint(path, ck)
        end = clock()
        tracer.close_segment("save")

        # Each step or validation is scaled by the ticks around the one after
        # it, and the checkpoint save by the last ones.
        steps, vals, prev, total = [], [], start, 0.0
        for t, line, resumed, tick in lines:
            dt = cal.scale(ctx, tick, t - prev)
            total += dt
            if line.startswith("step="):
                loss = float(re.search(r"\bloss=(\S+)", line).group(1))
                res.check(math.isfinite(loss), f"{ctx}: non-finite step loss {line!r}")
                steps.append(dt)
            else:
                vals.append((dt, float(re.search(r"val_loss=(\S+)", line).group(1))))
            prev = resumed
        total += cal.scale(ctx, cal.last(ctx), end - prev)
        res.check(
            len(vals) >= 2 and vals[-1][1] < vals[0][1],
            f"{ctx}: final dev loss does not fall below the initial one",
        )
        res.values[f"{ctx}_s"] = total
        res.values[f"{ctx}_validate_s"] = sum(v[0] for v in vals)
        res.values[f"{ctx}_dev_loss_final"] = vals[-1][1] if vals else float("nan")
        res.values[f"{ctx}_steps"] = len(steps)
        res.counts[f"{ctx}_tape_nodes"] = tracer.notes[ctx, "tape_nodes"]
        tracer.notes[ctx, "tape_nodes"] = 0
        res.counts[f"{ctx}_steps"] = len(steps)
        return ck, steps

    def iteration(self, tracer):
        res = Result()
        c = self.splits
        mono_m, mono_e = c["train-mono-m"], c["train-mono-e"]
        pre = self._phase(
            tracer, "pretrain",
            lambda log: training.pretrain(
                mono_m, mono_e, self.tcfg, self.arch, dev_m=c["dev-mono-m"],
                dev_e=c["dev-mono-e"], vocab=self.vocab, log=log,
            ),
            self.out / "pretrain.csrt", res,
        )
        if pre is None:
            return res
        corpora = {"cs": c["train-cs"], "mono-m": mono_m, "mono-e": mono_e}
        path = self.out / "finetune.csrt"
        fine = self._phase(
            tracer, "finetune",
            lambda log: training.finetune(
                corpora, pre[0], self.tcfg, self.arch, dev=c["dev-cs"],
                vocab=self.vocab, log=log,
            ),
            path, res,
        )
        if fine is None:
            return res
        v = res.values
        v["light_pass_utts_per_s"] = _rate(len(mono_m) + len(mono_e), v["pretrain_s"])
        v["full_pass_utts_per_s"] = _rate(
            v["finetune_steps"] * self.tcfg.batch_size, v["finetune_s"]
        )
        res.ops_s = fine[1]
        res.outputs = hashlib.sha256(path.read_bytes()).hexdigest()
        return res


class Decode(Workload):
    """Greedy and beam-10 transducer decoding of test-cs with the fixed model, scored."""

    def add_refs(self, work_dir):
        decode_refs(self.cal, DECODE_SPEC, DECODE_MODEL, work_dir)

    def setup(self, out):
        data.gen_corpus(data.CorpusSpec(**DECODE_SPEC), out / "corpus")
        self.corpus = data.load_corpus(out / "corpus")
        pool = self.corpus.split("test-cs")
        pick = np.random.default_rng(self.seed).choice(len(pool), DECODE_UTTS, replace=False)
        self.utts = [pool[i] for i in sorted(pick)]
        if hashlib.sha256(DECODE_MODEL.read_bytes()).hexdigest() != DECODE_MODEL_SHA256:
            raise SystemExit(f"{DECODE_MODEL} does not match its pinned SHA-256")
        ck = model.load_checkpoint(DECODE_MODEL)
        self.model = model.Model(ck.architecture(), params=ck.model_params())

    def describe(self):
        return {
            "splits": {"test-cs pool": DECODE_SPEC["test_count"], "decoded": len(self.utts)},
            "mean_frames": float(np.mean([u.n_frames for u in self.utts])),
            "mean_labels": float(np.mean([len(u.labels) for u in self.utts])),
            "beam": DECODE_BEAM,
            "n_params": self.model.n_params,
        }

    def iteration(self, tracer):
        res = Result()
        n_units = self.model.arch.n_units
        vocab = self.corpus.vocab

        def valid(hyp):
            return all(1 <= k <= n_units for k in hyp)

        cal = self.cal
        clock = cal.clock

        def each_utt(kind, work):
            """Run work(utt) over the sample, ticking the `kind` reference every
            TICK_EVERY utterances; returns the scaled times work(utt) returned."""
            times = []
            for i, utt in enumerate(self.utts):
                if i % TICK_EVERY == 0:
                    cal.tick(kind)
                times.append((cal.last(kind), work(utt)))
            return [
                [None if s is None else cal.scale(kind, tick, s) for s in parts]
                for tick, parts in times
            ]

        greedy = []

        def greedy_one(utt):
            t0 = clock()
            try:
                greedy.append(decoding.rnnt_decode(self.model, utt.features, beam=1))
            except CsrtError as exc:
                greedy.append(None)
                res.check(False, f"{utt.uid} greedy: {exc}")
            return (clock() - t0,)

        tracer.set_ctx("greedy")
        greedy_s = sum(t for (t,) in each_utt("greedy", greedy_one))
        greedy_calls = tracer.take_calls()

        mer = metrics.ErrorStats()
        hyps = []

        def beam_one(utt):
            """Times the decode (the op, None if it failed) and the decode plus scoring."""
            nonlocal mer
            g = greedy[len(hyps)]
            t0 = clock()
            try:
                hyp, score = decoding.rnnt_decode(self.model, utt.features, beam=DECODE_BEAM)
            except CsrtError as exc:
                hyps.append(None)
                res.check(False, f"{utt.uid} beam: {exc}")
                return None, clock() - t0
            t1 = clock()
            mer = mer + metrics.mixed_error_rate(hyp, utt.labels, vocab).mer
            t2 = clock()
            hyps.append((hyp, score))
            if g is not None:
                res.check(
                    score >= g[1] and valid(hyp) and valid(g[0]),
                    f"{utt.uid}: beam score below greedy or an invalid unit id",
                )
            return t1 - t0, t2 - t0

        tracer.set_ctx("beam")
        beam_times = each_utt("beam", beam_one)
        res.ops_s = [op for op, _ in beam_times if op is not None]
        beam_s = sum(t for _, t in beam_times)
        labels = sum(len(h[0]) for h in hyps if h is not None)
        beam_calls = tracer.take_calls()
        tracer.set_ctx("other")

        res.check(mer.rate <= MER_BOUND, f"test-cs MER {mer.rate:.4f} above {MER_BOUND}")
        n = len(self.utts)
        res.values = {
            "light_pass_utts_per_s": _rate(n, greedy_s),
            "full_pass_utts_per_s": _rate(n, beam_s),
            "test_cs_mer": mer.rate,
            "output_labels": labels,
        }
        res.counts = {
            "greedy_decoder_step_calls": greedy_calls.get("model.decoder_step", 0),
            "greedy_joint_row_calls": greedy_calls.get("model.joint_row", 0),
            "beam_decoder_step_calls": beam_calls.get("model.decoder_step", 0),
            "beam_joint_row_calls": beam_calls.get("model.joint_row", 0),
        }
        res.outputs = hashlib.sha256(repr((greedy, hyps)).encode()).hexdigest()
        return res


def stratified_half(utts, rng):
    """One of each pair of neighbours in (frames, labels) order, chosen by rng, in pool order.

    Every seed's sample thus has nearly the same length profile: seeds vary
    the inputs without varying the work much. Over seeds 101-110, samples
    drawn whole from a seed's own corpus moved the fine-tuning throughput
    by up to 12% through their lengths alone.
    """
    order = sorted(range(len(utts)), key=lambda i: (utts[i].n_frames, len(utts[i].labels), i))
    picked = [order[k + int(rng.integers(2))] for k in range(0, len(order) - 1, 2)]
    return [utts[i] for i in sorted(picked)]


WORKLOADS = {"finetune-short": Training, "finetune-long": Training, "decode-cs": Decode}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def percentile(xs, q):
    """Nearest-rank percentile q (0-100) of xs."""
    if not xs:
        return float("nan")
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, math.ceil(q / 100.0 * len(s)) - 1))]
