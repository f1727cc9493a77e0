"""Command-line surface binding data generation, training, and evaluation.

Five commands, one YAML config file with per-command sections, dotted-key
overrides, and a resolved-config snapshot written next to every command's
outputs:

    modlab synth   -c cfg.yaml [k=v ...]   dataset + stats (+ eval items)
    modlab train   -c cfg.yaml [k=v ...]   checkpoints + loss CSV + counters
    modlab eval    -c cfg.yaml [k=v ...]   metrics CSV + shift histograms
    modlab report  -c cfg.yaml [k=v ...]   comparison table across checkpoints
    modlab verify  [k=v ...]               run the oracle battery

A later command reads what an earlier one wrote under out_dir by the
names the earlier one was given (see default_config).  Every command is
deterministic given (config, seed): rerunning writes byte-identical
artifacts.  Exit codes: 0 success, 2 config error (an unknown key, a
setting not of its default's type or rejected by the class built from it;
an output path whose directory cannot be created; also a malformed dataset
line or checkpoint, or a checkpoint that does not fit the data: other
feature sizes, another vocabulary, or too few prompts; or a corruption the
data cannot give, such as random_swap with no distinct vector), 3 missing
input, 4 verification failure, 1 a diverging training run or an unexpected
runtime error.
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
from dataclasses import fields, is_dataclass, replace
from types import SimpleNamespace

import yaml

from . import eval as eval_mod
from . import oracles, synth
from . import train as training
from .core import ConfigurationError, check_numbers
from .corrupt import CorruptionError, CorruptionSpec
from .policy import CheckpointError, load_checkpoint, save_checkpoint
from .presets import DESK_SCALE, PRESET_NAMES, make_config

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_VERIFY = 4

COMMANDS = ("synth", "train", "eval", "verify", "report")

CONFIG_ENV_VAR = "MODLAB_CONFIG"

# The per-pair pass counts of a counters file, in the order train and report print them.
PASSES = tuple(f.name for f in fields(training.PassCounter))


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


def _defaults(cls, skip=()) -> dict:
    """{field: default} of a config class's fields outside skip, in field order."""
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


def default_config() -> dict:
    """The config schema: every setting a command reads, with its default
    (desk scale, for a full synth -> train -> eval -> report pass).

    The synth settings are SynthConfig's fields but seed, and the
    synth.eval_items settings EvalConfig's fields outside the world synth
    shares with it (synth.WORLD); eval.shift and report.shift are
    CorruptionSpec's fields; train.lr and train.epochs are the presets'
    desk scale.  Each default is its class's own.  The global seed seeds
    them all, the shift analysis included.

    A setting must have its default's type: an integer default takes only
    integers, a float default a number or a list of numbers (synth's
    matched_bias one co-occurrence rate per entity kind, its feature_noise
    an (audio, visual) pair), a string or boolean default only its type,
    and a mapping default a mapping or null (a section only a mapping).  A
    null synth.eval_items writes no eval items, and a null shift runs at
    CorruptionSpec's defaults.  A null default stands for the value the
    comment beside it names; the class built from it checks a value set
    there.  report.checkpoints maps names of the user's choice to paths.
    Output names are relative to out_dir and may name subdirectories; a
    null input path is the out_dir file its writer was told to write.
    """
    shift = _defaults(CorruptionSpec)
    return {
        "seed": 0,
        "out_dir": "runs/demo",
        "synth": {
            **_defaults(synth.SynthConfig, ("seed",)),
            "out": "dataset.jsonl",
            "eval_items": {**_defaults(synth.EvalConfig, synth.WORLD), "out": "eval_items.jsonl"},
        },
        "train": {
            "dataset": None,  # null: synth.out
            "reference": None,  # a reference checkpoint; null: warm one up
            "preset": "modpp",
            **DESK_SCALE,
            # null: the preset's value
            "batch_size": None,
            "warmup_steps": None,
            "hp": None,  # Hyperparams fields
            "corruption": None,  # CorruptionSpec fields
            "checkpoint": "policy.ckpt",
            "reference_checkpoint": "reference.ckpt",
            "loss_trace": "loss_trace.csv",
            "counters": "counters.json",
        },
        "eval": {
            "checkpoint": None,  # null: train.checkpoint
            "items": None,  # null: synth.eval_items.out
            "shift": dict(shift),
            "out_prefix": "metrics",
        },
        "report": {
            # name -> path; empty: train.reference_checkpoint and train.checkpoint
            "checkpoints": {},
            "items": None,  # null: synth.eval_items.out
            "shift": dict(shift),
            "out_prefix": "comparison",
        },
        "verify": {"fast": True},
    }


def _is_number(value) -> bool:
    return type(value) in (int, float)


# The type of a setting's default -> (test of a value, what the value must be).
_TYPE_RULES = {
    bool: (lambda v: type(v) is bool, "true or false"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: _is_number(v) or type(v) is list and all(map(_is_number, v)),
            "a number or a list of numbers"),
    str: (lambda v: type(v) is str, "a string"),
}


def _resolve(value, default, path: str = ""):
    """value checked against its default (see default_config), with every
    key a mapping leaves out set to its default; path names the setting."""
    if default is None:  # checked by what the command builds from it
        return value
    if not isinstance(default, dict):
        fits, kind = _TYPE_RULES[type(default)]
        if not fits(value):
            raise CliError(f"setting {path} must be {kind}, got {value!r}", EXIT_CONFIG)
        return value
    if value is None and "." in path:
        return None
    if not isinstance(value, dict):
        raise CliError(f"config section {path} must be a mapping, got {value!r}", EXIT_CONFIG)
    prefix = f"{path}." if path else ""
    if not default:  # names of the user's choice, each mapped to a path
        return {k: _resolve(v, "", f"{prefix}{k}") for k, v in value.items()}
    _reject_unknown(value, default, path)
    return {k: _resolve(value.get(k, d), d, f"{prefix}{k}") for k, d in default.items()}


def _reject_unknown(value: dict, known, path: str) -> None:
    """Exit 2 with one line naming every key of the mapping at path not in known."""
    prefix = f"{path}." if path else ""
    unknown = sorted(f"{prefix}{k}" for k in set(value) - set(known))
    if unknown:
        where = path.split(".")[0] or "top-level"
        raise CliError(f"unknown {where} setting {', '.join(unknown)}", EXIT_CONFIG)


def apply_override(cfg: dict, dotted: str) -> None:
    if "=" not in dotted:
        raise CliError(f"override {dotted!r} is not of the form key=value", EXIT_CONFIG)
    key, raw = dotted.split("=", 1)
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        if node.get(part) is None:
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise CliError(f"override {key!r} descends through a non-section value", EXIT_CONFIG)
    try:
        value = yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError:
        value = raw
    node[parts[-1]] = value


def load_config(config_path, overrides) -> dict:
    """The config file (if any) with the overrides applied, checked against
    default_config() and completed from it, with a non-negative seed."""
    cfg = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                cfg = yaml.load(fh, Loader=_ConfigLoader) or {}
        except OSError as exc:
            raise CliError(f"cannot read config {config_path}: {exc}", EXIT_MISSING)
        except yaml.YAMLError as exc:
            raise CliError(f"config {config_path} does not parse: {exc}", EXIT_CONFIG)
        if not isinstance(cfg, dict):
            raise CliError(f"config {config_path} must be a mapping of sections", EXIT_CONFIG)
    for dotted in overrides or ():
        apply_override(cfg, dotted)
    cfg = _resolve(cfg, default_config())
    check_numbers(SimpleNamespace(seed=cfg["seed"]), ConfigurationError, ("seed",), integer=True)
    return cfg


def _out_path(cfg: dict, name: str) -> str:
    """<out_dir>/<name>, its directory created; exit 2 when it names an
    existing directory or its directory cannot be created."""
    path = os.path.join(cfg["out_dir"], name)
    if os.path.isdir(path):
        raise CliError(f"output {path} is an existing directory", EXIT_CONFIG)
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create the directory of output {path}: {exc.strerror}",
                       EXIT_CONFIG) from None
    return path


def _written(cfg: dict) -> dict:
    """The paths of what synth and train are told to write, which null input
    settings stand for (items: None when synth writes no eval items)."""
    def at(name):
        return os.path.join(cfg["out_dir"], name)

    items, train = cfg["synth"]["eval_items"], cfg["train"]
    return {"dataset": at(cfg["synth"]["out"]), "items": items and at(items["out"]),
            "reference": at(train["reference_checkpoint"]), "policy": at(train["checkpoint"]),
            "counters": at(train["counters"])}


def _write_snapshot(cfg: dict, command: str) -> None:
    path = _out_path(cfg, f"{command}.config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True, default_flow_style=False)


def _require_file(path, what: str) -> str:
    """path, or exit 3 unless it names a regular file."""
    if not isinstance(path, str) or not os.path.exists(path):
        raise CliError(f"{what} not found: {path}", EXIT_MISSING)
    if not os.path.isfile(path):
        raise CliError(f"{what} is not a regular file: {path}", EXIT_MISSING)
    return path


def _build(what: str, make):
    """make(), or exit 2 with one line naming the settings ``what`` when the
    class it builds rejects them (TypeError or ValueError)."""
    try:
        return make()
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid {what} config: {exc}", EXIT_CONFIG) from None


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


def _load_eval_inputs(cfg: dict, name: str, checkpoints: dict) -> tuple:
    """(eval items, [(name, params)]) of section name: its items, by default
    the file synth wrote, and the named checkpoints, each fit to the items."""
    items_path = cfg[name]["items"] or _written(cfg)["items"]
    if items_path is None:
        raise CliError(f"no eval items: {name}.items and synth.eval_items are null", EXIT_MISSING)
    items = eval_mod.load_eval_items(_require_file(items_path, "eval items"))
    named = []
    for model, path in sorted(checkpoints.items()):
        params = load_checkpoint(_require_file(path, f"checkpoint {model!r}"))
        check_compatible(params, path, items, items_path)
        named.append((model, params))
    return items, named


def _shift_spec(cfg: dict, name: str) -> CorruptionSpec:
    """The CorruptionSpec of section name's shift settings (its defaults when
    they are null)."""
    shift = cfg[name]["shift"] or {}
    return _build(f"{name}.shift", lambda: CorruptionSpec(**shift))


def _csv_cell(value):
    if value is None:
        return ""
    return "%.4f" % value if isinstance(value, float) else value


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(cfg: dict) -> int:
    # The synth settings besides out and eval_items are SynthConfig fields, and
    # the eval_items settings besides out are EvalConfig fields.
    section, seed = cfg["synth"], cfg["seed"]
    settings = {k: v for k, v in section.items() if k not in ("out", "eval_items")}
    data_cfg = _build("synth", lambda: synth.SynthConfig(seed=seed, **settings))
    item_settings = section["eval_items"]
    if item_settings is not None:
        world = {k: settings[k] for k in synth.WORLD if k != "seed"}
        eval_cfg = _build("synth.eval_items", lambda: synth.EvalConfig(
            seed=seed + 1, **world, **{k: v for k, v in item_settings.items() if k != "out"}))

    # Generate both sets and check both outputs before writing either, so a
    # failure writes nothing.
    pairs = synth.generate_pairs(data_cfg)
    items = synth.generate_eval_items(eval_cfg) if item_settings is not None else None
    out = _out_path(cfg, section["out"])
    items_out = _out_path(cfg, item_settings["out"]) if items is not None else None
    stats = synth.write_pairs(out, pairs, data_cfg)
    print(f"wrote {stats['n_records']} preference records to {out}")
    print(f"  matched ratio {stats['matched_ratio']:.3f}; "
          f"tasks {stats['question_kind_counts']}")
    if items is not None:
        istats = synth.write_eval_items(items_out, items, eval_cfg)
        print(f"wrote {istats['n_records']} eval items to {items_out} "
              f"(answers {istats['answer_balance']})")
    _write_snapshot(cfg, "synth")
    return EXIT_OK


def build_train_config(section: dict, seed: int) -> training.TrainConfig:
    """The preset's TrainConfig with the section's non-null settings over it;
    an hp or corruption mapping sets the fields it names over the preset's,
    and a name that is not a field is an unknown setting."""
    if section["preset"] not in PRESET_NAMES:
        raise CliError(f"unknown preset {section['preset']!r}; known: {', '.join(PRESET_NAMES)}",
                       EXIT_CONFIG)
    preset, overrides = make_config(section["preset"]), {}
    for name in (f.name for f in fields(training.TrainConfig)):
        value = section.get(name)  # None for seed, the global setting
        if value is None:
            continue
        base = getattr(preset, name)
        if is_dataclass(base):  # hp, corruption
            if isinstance(value, dict):
                _reject_unknown(value, [f.name for f in fields(base)], f"train.{name}")
            value = _build(f"train.{name}", lambda: replace(base, **value))
        overrides[name] = value
    return _build("train", lambda: make_config(section["preset"], seed=seed, **overrides))


def cmd_train(cfg: dict) -> int:
    section = cfg["train"]
    train_cfg = build_train_config(section, cfg["seed"])
    dataset_path = section["dataset"] or _written(cfg)["dataset"]
    dataset = synth.load_pairs(_require_file(dataset_path, "training dataset"))

    ref_params = None
    if section["reference"]:
        ref_path = _require_file(section["reference"], "reference checkpoint")
        ref_params = load_checkpoint(ref_path)
        check_compatible(ref_params, ref_path, dataset, dataset_path)
    ckpt, ref_ckpt, loss_trace, counters_path = (
        _out_path(cfg, section[key])
        for key in ("checkpoint", "reference_checkpoint", "loss_trace", "counters"))
    result = training.train(dataset, train_cfg, ref_params=ref_params)
    save_checkpoint(result.params, ckpt)
    save_checkpoint(result.ref_params, ref_ckpt)

    with open(loss_trace, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(result.losses):
            writer.writerow([step, "%.12g" % loss])

    unique = {tuple(sorted(c.__dict__.items())) for c in result.counters}
    summary = {
        "loss_variant": train_cfg.loss_variant,
        "n_steps": len(result.counters),
        "per_pair_counters": [dict(u) for u in sorted(unique)],
        "final_loss": float(result.losses[-1]) if len(result.losses) else None,
    }
    with open(counters_path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"trained {train_cfg.loss_variant} for {len(result.counters)} steps; "
          f"final loss {summary['final_loss']:.6f}")
    for c in summary["per_pair_counters"]:
        print("  per-pair passes: " + " ".join(f"{k}={c[k]}" for k in PASSES))
    print(f"checkpoints: {ckpt}, {ref_ckpt}")
    _write_snapshot(cfg, "train")
    return EXIT_OK


def cmd_eval(cfg: dict) -> int:
    section = cfg["eval"]
    spec = _shift_spec(cfg, "eval")
    ckpt = section["checkpoint"] or _written(cfg)["policy"]
    items, named = _load_eval_inputs(cfg, "eval", {"policy": ckpt})

    [row] = eval_mod.compare(named, items, shift_spec=spec, seed=cfg["seed"])
    prefix = section["out_prefix"]
    with open(_out_path(cfg, f"{prefix}.csv"), "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", *row.group_reports["overall"].as_dict()])
        for group, report in sorted(row.group_reports.items()):
            writer.writerow([group, *map(_csv_cell, report.as_dict().values())])
    overall = row.group_reports["overall"]
    acc, pa, hr, f1 = ("-" if v is None else f"{v:.2f}"  # undefined metrics print as "-"
                       for v in (overall.accuracy, overall.pa, overall.hr, overall.f1))
    print(f"overall: acc={acc} pa={pa} hr={hr} f1={f1} on {overall.total} items")
    for which, stats in (("relevant", row.shift_relevant), ("irrelevant", row.shift_irrelevant)):
        if stats is not None:
            eval_mod.shift_histogram_to_file(stats, _out_path(cfg, f"{prefix}_shift_{which}.csv"))
            print(f"shift {which}: mean {stats.mean:+.4f}, mean|d| {stats.mean_abs:.4f}")
    _write_snapshot(cfg, "eval")
    return EXIT_OK


def cmd_report(cfg: dict) -> int:
    section = cfg["report"]
    spec = _shift_spec(cfg, "report")
    ckpts = section["checkpoints"] or {m: _written(cfg)[m] for m in ("reference", "policy")}
    items, named = _load_eval_inputs(cfg, "report", ckpts)
    # Pass-counter summaries: by default the one this config's train wrote,
    # else those train runs wrote under the train.counters name next to the
    # named checkpoints, once per directory.
    near = {_written(cfg)["counters"]: "policy"} if not section["checkpoints"] else {}
    for name, path in sorted(section["checkpoints"].items()):
        near.setdefault(os.path.join(os.path.dirname(os.path.abspath(path)),
                                     cfg["train"]["counters"]), name)
    summaries = [(name, _read_counters(path)) for path, name in near.items()
                 if os.path.isfile(path)]

    rows = eval_mod.compare(named, items, shift_spec=spec, seed=cfg["seed"])
    prefix = section["out_prefix"]
    eval_mod.comparison_to_csv(rows, _out_path(cfg, f"{prefix}.csv"))
    table = eval_mod.comparison_table(rows)
    with open(_out_path(cfg, f"{prefix}.txt"), "w", encoding="ascii") as fh:
        fh.write(table + "\n")
    print(table)
    for name, summary in summaries:
        for c in summary["per_pair_counters"]:
            print(f"counters [{summary['loss_variant']}] near {name}: "
                  f"({','.join(str(c[k]) for k in PASSES)}) per pair")
    _write_snapshot(cfg, "report")
    return EXIT_OK


def _read_counters(path) -> dict:
    """The summary a train run wrote to a counters file; exit 2 with one line
    naming the file unless it has cmd_train's shape: a string loss_variant
    and a per_pair_counters list of objects holding the integer PASSES."""
    try:
        with open(path, encoding="ascii") as fh:
            summary = json.load(fh)
        counters = summary["per_pair_counters"]
        if (isinstance(summary["loss_variant"], str) and isinstance(counters, list)
                and all(type(c[k]) is int for c in counters for k in PASSES)):
            return summary
    except (ValueError, LookupError, TypeError):  # not ASCII JSON, or not of that shape
        pass
    raise CliError(f"counters file {path} is not a train run's pass-count summary", EXIT_CONFIG)


def cmd_verify(cfg: dict) -> int:
    results = oracles.run_all(fast=cfg["verify"]["fast"], seed=cfg["seed"])
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
    except (ConfigurationError, CorruptionError, synth.WorldError, training.TrainingError,
            CheckpointError) as exc:
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
