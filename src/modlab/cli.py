"""Command-line surface binding data generation, training, and evaluation.

Five commands, one YAML config file with per-command sections, dotted-key
overrides, and a resolved-config snapshot written next to every command's
outputs:

    modlab synth   -c cfg.yaml [k=v ...]   dataset + stats (+ eval items)
    modlab train   -c cfg.yaml [k=v ...]   checkpoints + loss CSV + counters
    modlab eval    -c cfg.yaml [k=v ...]   metrics CSV + shift histograms
    modlab report  -c cfg.yaml [k=v ...]   comparison table across checkpoints
    modlab verify  [k=v ...]               run the oracle battery

Every command is deterministic given (config, seed): rerunning writes
byte-identical artifacts.  Exit codes: 0 success, 2 config error (also a
malformed dataset line or checkpoint, or a checkpoint that does not fit
the data: other feature sizes, another vocabulary, or too few prompts), 3
missing input, 4 verification failure, 1 a diverging training run or an
unexpected runtime error.
The default config path can be set via the MODLAB_CONFIG environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

import yaml

from . import eval as eval_mod
from . import oracles, synth
from . import train as training
from .core import ConfigurationError, Hyperparams
from .corrupt import CorruptionSpec
from .policy import CheckpointError, load_checkpoint, save_checkpoint
from .presets import PRESET_NAMES, make_config

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_VERIFY = 4

COMMANDS = ("synth", "train", "eval", "verify", "report")

CONFIG_ENV_VAR = "MODLAB_CONFIG"


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads exponent floats without a dot (3e-7,
    1e-4) as floats; the YAML 1.1 resolver leaves them strings."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def default_config() -> dict:
    """Desk-scale defaults for a full synth -> train -> eval -> report pass."""
    return {
        "seed": 0,
        "out_dir": "runs/demo",
        "synth": {
            "n_pairs": 2000,
            "n_scenes": 500,
            "matched_fraction": 0.5,
            "presence_fraction": 0.7,
            "matched_bias": 0.5,
            "feature_noise": 0.05,
            "world_seed": 7,
            "out": "dataset.jsonl",
            "eval_items": {
                "n_items": 2000,
                "matched_fraction": 0.5,
                "out": "eval_items.jsonl",
            },
        },
        "train": {
            "dataset": None,  # default: <out_dir>/dataset.jsonl
            "preset": "modpp",
            "lr": 0.15,
            "epochs": 4,
            "checkpoint": "policy.ckpt",
            "reference_checkpoint": "reference.ckpt",
        },
        "eval": {
            "checkpoint": None,  # default: <out_dir>/policy.ckpt
            "items": None,  # default: <out_dir>/eval_items.jsonl
            "shift": {"kind": "diffusion", "t": 500},
            "out_prefix": "metrics",
        },
        "report": {
            "checkpoints": {},  # name -> path; empty means reference+policy
            "items": None,
            "out_prefix": "comparison",
        },
        "verify": {"fast": True},
    }


def _deep_update(base: dict, extra: dict) -> dict:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def apply_override(cfg: dict, dotted: str) -> None:
    if "=" not in dotted:
        raise CliError(f"override {dotted!r} is not of the form key=value", EXIT_CONFIG)
    key, raw = dotted.split("=", 1)
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise CliError(f"override {key!r} descends through a non-section value", EXIT_CONFIG)
    try:
        value = yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError:
        value = raw
    node[parts[-1]] = value


def load_config(config_path, overrides) -> dict:
    cfg = default_config()
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                user_cfg = yaml.load(fh, Loader=_ConfigLoader) or {}
        except OSError as exc:
            raise CliError(f"cannot read config {config_path}: {exc}", EXIT_MISSING)
        except yaml.YAMLError as exc:
            raise CliError(f"config {config_path} does not parse: {exc}", EXIT_CONFIG)
        if not isinstance(user_cfg, dict):
            raise CliError(f"config {config_path} must be a mapping of sections", EXIT_CONFIG)
        _deep_update(cfg, user_cfg)
    for dotted in overrides or ():
        apply_override(cfg, dotted)
    if "seed" not in cfg or cfg["seed"] is None:
        raise CliError("a global seed is required", EXIT_CONFIG)
    return cfg


def _out_path(cfg: dict, name: str) -> str:
    out_dir = cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_snapshot(cfg: dict, command: str) -> None:
    path = _out_path(cfg, f"{command}.config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True, default_flow_style=False)


def _require_file(path, what: str) -> str:
    if not path or not os.path.exists(path):
        raise CliError(f"{what} not found: {path}", EXIT_MISSING)
    return path


def check_compatible(params, ckpt_path, data, data_path) -> None:
    """Exit 2 unless a checkpoint fits a record table: its d_a/d_v match the
    features, its vocabulary is synth's, and it has a row for every
    prompt_id in the data."""
    if not len(data):
        return
    want = params.u_a.shape[1], params.u_v.shape[1]
    have = data.audio.shape[1], data.visual.shape[1]
    if want != have:
        raise CliError(f"checkpoint {ckpt_path} has d_a={want[0]}, d_v={want[1]} but "
                       f"{data_path} has d_a={have[0]}, d_v={have[1]}", EXIT_CONFIG)
    if params.vocab_size != synth.VOCAB_SIZE:
        raise CliError(f"checkpoint {ckpt_path} has vocab_size={params.vocab_size} but "
                       f"{data_path} needs vocab_size={synth.VOCAB_SIZE}", EXIT_CONFIG)
    needed = int(data.prompt_id.max()) + 1
    if params.n_prompts < needed:
        raise CliError(f"checkpoint {ckpt_path} has n_prompts={params.n_prompts} but "
                       f"{data_path} needs n_prompts>={needed}", EXIT_CONFIG)


def _shift_spec(section: dict, seed: int) -> CorruptionSpec:
    shift_cfg = section.get("shift") or {}
    return CorruptionSpec(kind=shift_cfg.get("kind", "diffusion"),
                          t=int(shift_cfg.get("t", 500)),
                          sigma=float(shift_cfg.get("sigma", 1.0)),
                          seed=seed)


def _csv_cell(value):
    if value is None:
        return ""
    return "%.4f" % value if isinstance(value, float) else value


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(cfg: dict) -> int:
    section = _section(cfg, "synth")
    try:
        data_cfg = synth.SynthConfig(
            n_pairs=int(section["n_pairs"]),
            n_scenes=int(section["n_scenes"]),
            matched_fraction=float(section["matched_fraction"]),
            presence_fraction=float(section["presence_fraction"]),
            matched_bias=section.get("matched_bias", 0.5),
            feature_noise=section.get("feature_noise", synth.FEATURE_NOISE),
            seed=int(cfg["seed"]),
            world_seed=int(section.get("world_seed", 7)),
        )
    except (KeyError, TypeError, ValueError, synth.WorldError) as exc:
        raise CliError(f"invalid synth config: {exc}", EXIT_CONFIG)
    out = _out_path(cfg, section.get("out", "dataset.jsonl"))
    stats = synth.assemble_dataset(data_cfg, out)
    print(f"wrote {stats['n_records']} preference records to {out}")
    print(f"  matched ratio {stats['matched_ratio']:.3f}; "
          f"tasks {stats['question_kind_counts']}")

    items_section = section.get("eval_items")
    if items_section:
        try:
            eval_cfg = synth.EvalConfig(
                n_items=int(items_section.get("n_items", 2000)),
                n_scenes=int(section["n_scenes"]),
                matched_fraction=float(items_section.get("matched_fraction", 0.5)),
                matched_bias=section.get("matched_bias", 0.5),
                matching_fraction=float(items_section.get("matching_fraction", 0.0)),
                dominance_fraction=float(items_section.get("dominance_fraction", 0.0)),
                feature_noise=section.get("feature_noise", synth.FEATURE_NOISE),
                seed=int(cfg["seed"]) + 1,
                world_seed=int(section.get("world_seed", 7)),
            )
        except (TypeError, ValueError, synth.WorldError) as exc:
            raise CliError(f"invalid eval_items config: {exc}", EXIT_CONFIG)
        items_out = _out_path(cfg, items_section.get("out", "eval_items.jsonl"))
        istats = synth.assemble_eval_items(eval_cfg, items_out)
        print(f"wrote {istats['n_records']} eval items to {items_out} "
              f"(answers {istats['answer_balance']})")
    _write_snapshot(cfg, "synth")
    return EXIT_OK


# The TrainConfig fields a train section sets directly.
_TRAIN_FIELDS = ("loss_variant", "lr", "epochs", "batch_size", "warmup_steps", "warmup_lr")
# The keys each section may hold; a nested mapping checked here lists its
# own.  train.hp and train.corruption are checked by the dataclasses they
# build, and report.checkpoints names checkpoints freely.
_SHIFT = {"kind": None, "t": None, "sigma": None}
_SECTION_KEYS = {
    "synth": {**dict.fromkeys(default_config()["synth"]), "eval_items": dict.fromkeys(
        ("n_items", "matched_fraction", "matching_fraction", "dominance_fraction", "out"))},
    "train": dict.fromkeys((*_TRAIN_FIELDS, "preset", "hp", "corruption", "dataset", "reference",
                            "checkpoint", "reference_checkpoint", "loss_trace", "counters")),
    "eval": {"checkpoint": None, "items": None, "out_prefix": None, "shift": _SHIFT},
    "report": {"checkpoints": None, "items": None, "out_prefix": None, "shift": _SHIFT},
    "verify": {"fast": None},
}


def _section(cfg: dict, name: str) -> dict:
    """cfg[name], or exit 2 with one line naming a section (or a nested
    mapping other than null) that is not a mapping, or an unknown key."""

    def check(section, path: str, keys: dict):
        if not isinstance(section, dict):
            raise CliError(f"config section {path} must be a mapping, got {section!r}",
                           EXIT_CONFIG)
        unknown = sorted(f"{path}.{k}" for k in set(section) - set(keys))
        if unknown:
            raise CliError(f"unknown {name} setting {', '.join(unknown)}", EXIT_CONFIG)
        for key, nested in keys.items():
            if nested and section.get(key) is not None:
                check(section[key], f"{path}.{key}", nested)

    check(cfg.get(name), name, _SECTION_KEYS[name])
    return cfg[name]


def build_train_config(section: dict, seed: int) -> training.TrainConfig:
    preset = section.get("preset")
    overrides = {}
    if "hp" in section:
        overrides["hp"] = Hyperparams(**section["hp"])
    if "corruption" in section:
        overrides["corruption"] = CorruptionSpec(**section["corruption"])
    for field in _TRAIN_FIELDS:
        if field in section and section[field] is not None:
            overrides[field] = section[field]
    overrides["seed"] = seed
    if preset:
        if preset not in PRESET_NAMES:
            raise CliError(f"unknown preset {preset!r}; known: {', '.join(PRESET_NAMES)}",
                           EXIT_CONFIG)
        return make_config(preset, **overrides)
    return training.TrainConfig(**overrides)


def cmd_train(cfg: dict) -> int:
    section = _section(cfg, "train")
    dataset_path = section.get("dataset") or _out_path(cfg, "dataset.jsonl")
    _require_file(dataset_path, "training dataset")
    dataset = synth.load_pairs(dataset_path)
    try:
        train_cfg = build_train_config(section, int(cfg["seed"]))
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise CliError(f"invalid train config: {exc}", EXIT_CONFIG)

    ref_params = None
    if section.get("reference"):
        ref_path = _require_file(section["reference"], "reference checkpoint")
        ref_params = load_checkpoint(ref_path)
        check_compatible(ref_params, ref_path, dataset, dataset_path)
    result = training.train(dataset, train_cfg, ref_params=ref_params)

    ckpt = _out_path(cfg, section.get("checkpoint", "policy.ckpt"))
    ref_ckpt = _out_path(cfg, section.get("reference_checkpoint", "reference.ckpt"))
    save_checkpoint(result.params, ckpt)
    save_checkpoint(result.ref_params, ref_ckpt)

    trace_path = _out_path(cfg, section.get("loss_trace", "loss_trace.csv"))
    with open(trace_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(result.losses):
            writer.writerow([step, "%.12g" % loss])

    counters = [c.__dict__ for c in result.counters]
    unique = {tuple(sorted(c.items())) for c in counters}
    summary = {
        "loss_variant": train_cfg.loss_variant,
        "n_steps": len(result.counters),
        "per_pair_counters": sorted(dict(u) for u in unique),
        "n_av_excluded": result.n_av_excluded,
        "final_loss": float(result.losses[-1]) if len(result.losses) else None,
    }
    counters_path = _out_path(cfg, section.get("counters", "counters.json"))
    with open(counters_path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"trained {train_cfg.loss_variant} for {len(result.counters)} steps; "
          f"final loss {summary['final_loss']:.6f}")
    for c in summary["per_pair_counters"]:
        print(f"  per-pair passes: fwd_policy={c['fwd_policy']} fwd_ref={c['fwd_ref']} "
              f"bwd_policy={c['bwd_policy']} bwd_ref={c['bwd_ref']}")
    print(f"checkpoints: {ckpt}, {ref_ckpt}")
    _write_snapshot(cfg, "train")
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    section = _section(cfg, "eval")
    ckpt = section.get("checkpoint") or _out_path(cfg, "policy.ckpt")
    items_path = section.get("items") or _out_path(cfg, "eval_items.jsonl")
    params = load_checkpoint(_require_file(ckpt, "checkpoint"))
    items = eval_mod.load_eval_items(_require_file(items_path, "eval items"))
    check_compatible(params, ckpt, items, items_path)

    reports = eval_mod.evaluate_by_group(params, items)
    prefix = section.get("out_prefix", "metrics")
    csv_path = _out_path(cfg, f"{prefix}.csv")
    with open(csv_path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", *reports["overall"].as_dict()])
        for group, report in sorted(reports.items()):
            writer.writerow([group, *map(_csv_cell, report.as_dict().values())])

    spec = _shift_spec(section, int(cfg["seed"]))
    unimodal = items[items.modality_tag != synth.AUDIOVISUAL]
    shift_summary = {}
    if len(unimodal):
        for which in ("relevant", "irrelevant"):
            stats = eval_mod.loglik_shift(params, unimodal, spec, which)
            eval_mod.shift_histogram_to_file(stats, _out_path(cfg, f"{prefix}_shift_{which}.csv"))
            shift_summary[which] = {"mean": stats.mean, "mean_abs": stats.mean_abs}
    overall = reports["overall"]
    print(f"overall: acc={overall.accuracy:.2f} pa={overall.pa:.2f} hr={overall.hr:.2f} "
          f"f1={overall.f1:.2f} on {overall.total} items")
    for which, s in shift_summary.items():
        print(f"shift {which}: mean {s['mean']:+.4f}, mean|d| {s['mean_abs']:.4f}")
    _write_snapshot(cfg, "eval")
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    section = _section(cfg, "report")
    ckpts = section.get("checkpoints") or {}
    if not ckpts:
        ckpts = {"reference": _out_path(cfg, "reference.ckpt"),
                 "policy": _out_path(cfg, "policy.ckpt")}
    items_path = section.get("items") or _out_path(cfg, "eval_items.jsonl")
    items = eval_mod.load_eval_items(_require_file(items_path, "eval items"))
    named = []
    for name, path in sorted(ckpts.items()):
        params = load_checkpoint(_require_file(path, f"checkpoint {name!r}"))
        check_compatible(params, path, items, items_path)
        named.append((name, params))
    rows = eval_mod.compare(named, items, shift_spec=_shift_spec(section, int(cfg["seed"])))
    prefix = section.get("out_prefix", "comparison")
    eval_mod.comparison_to_csv(rows, _out_path(cfg, f"{prefix}.csv"))
    table = eval_mod.comparison_table(rows)
    with open(_out_path(cfg, f"{prefix}.txt"), "w", encoding="ascii") as fh:
        fh.write(table + "\n")
    print(table)

    # Pass-counter summaries written by train runs next to the checkpoints,
    # once per directory.
    seen = set()
    for name, path in sorted(ckpts.items()):
        counters_path = os.path.join(os.path.dirname(os.path.abspath(path)), "counters.json")
        if counters_path in seen or not os.path.exists(counters_path):
            continue
        seen.add(counters_path)
        with open(counters_path, encoding="ascii") as fh:
            summary = json.load(fh)
        for c in summary.get("per_pair_counters", []):
            print(f"counters [{summary.get('loss_variant', '?')}] near {name}: "
                  f"({c['fwd_policy']},{c['fwd_ref']},{c['bwd_policy']},{c['bwd_ref']}) per pair")
    _write_snapshot(cfg, "report")
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    fast = bool(_section(cfg, "verify").get("fast", True))
    results = oracles.run_all(fast=fast, seed=int(cfg.get("seed", 0)))
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail} ({res.seconds:.1f}s)")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} suite(s) failed")
        return EXIT_VERIFY
    print(f"all {len(results)} oracle suites passed")
    return EXIT_OK


def run(command: str, config_path=None, overrides=()) -> int:
    """Programmatic entry point; returns the process exit code."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; choose from {COMMANDS}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(config_path, overrides)
        handler = {"synth": cmd_synth, "train": cmd_train, "eval": cmd_eval,
                   "report": cmd_report, "verify": cmd_verify}[command]
        return handler(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigurationError, synth.WorldError, training.TrainingError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except training.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modlab",
        description="Desk-scale modality-decoupled preference optimization lab.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("-c", "--config", default=os.environ.get(CONFIG_ENV_VAR),
                        help="YAML config path (default: $MODLAB_CONFIG or built-ins)")
    parser.add_argument("overrides", nargs="*",
                        help="dotted-key overrides, e.g. train.lr=0.5")
    args = parser.parse_intermixed_args(argv)
    return run(args.command, args.config, args.overrides)


if __name__ == "__main__":
    sys.exit(main())
