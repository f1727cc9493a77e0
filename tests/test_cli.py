"""Command-line surface: artifacts, determinism, exit codes."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest
import yaml

from modlab import cli, oracles
from modlab import train as training
from modlab.core import Hyperparams
from modlab.corrupt import CorruptionSpec
from modlab.policy import init_params, save_checkpoint


def write_config(tmp_path, **extra):
    cfg = {
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
        "synth": {
            "n_pairs": 120,
            "n_scenes": 40,
            "matched_fraction": 0.5,
            "presence_fraction": 0.7,
            "world_seed": 5,
            "out": "dataset.jsonl",
            "eval_items": {"n_items": 80, "matched_fraction": 0.5, "out": "eval_items.jsonl"},
        },
        "train": {"preset": "modpp", "lr": 0.2, "epochs": 1, "warmup_steps": 30},
        "eval": {"shift": {"kind": "diffusion", "t": 100}},
    }
    cfg.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, cfg


class TestPipeline:
    def test_synth_train_eval_report(self, tmp_path):
        config_path, cfg = write_config(tmp_path)
        out = tmp_path / "run"

        assert cli.run("synth", config_path) == 0
        assert (out / "dataset.jsonl").exists()
        assert (out / "dataset.jsonl.stats.json").exists()
        assert (out / "eval_items.jsonl").exists()
        assert (out / "synth.config.yaml").exists()

        assert cli.run("train", config_path) == 0
        assert (out / "policy.ckpt").exists() and (out / "reference.ckpt").exists()
        assert (out / "loss_trace.csv").exists()
        counters = json.loads((out / "counters.json").read_text())
        assert counters["per_pair_counters"] == [
            {"bwd_policy": 2, "bwd_ref": 0, "fwd_policy": 6, "fwd_ref": 4}]

        assert cli.run("eval", config_path) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "metrics_shift_relevant.csv").exists()
        assert (out / "metrics_shift_irrelevant.csv").exists()

        assert cli.run("report", config_path) == 0
        assert (out / "comparison.csv").exists() and (out / "comparison.txt").exists()

    def test_dpo_counters_via_override(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path, ["train.preset=dpo"]) == 0
        counters = json.loads((tmp_path / "run" / "counters.json").read_text())
        assert counters["per_pair_counters"] == [
            {"bwd_policy": 2, "bwd_ref": 0, "fwd_policy": 2, "fwd_ref": 2}]

    def test_every_distinct_counter_is_listed(self, tmp_path, monkeypatch):
        # A run whose steps count passes two ways lists both, sorted.
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        real_train = training.train

        def two_patterns(dataset, cfg, ref_params=None):
            result = real_train(dataset, cfg, ref_params=ref_params)
            result.counters[-1] = training.PassCounter(2, 2, 2, 0)
            return result

        monkeypatch.setattr(training, "train", two_patterns)
        assert cli.run("train", config_path) == 0
        counters = json.loads((tmp_path / "run" / "counters.json").read_text())
        assert counters["per_pair_counters"] == [
            {"bwd_policy": 2, "bwd_ref": 0, "fwd_policy": 2, "fwd_ref": 2},
            {"bwd_policy": 2, "bwd_ref": 0, "fwd_policy": 6, "fwd_ref": 4}]

    def test_strengths_over_the_dpo_preset_set_the_loss(self, tmp_path, capsys):
        # No setting zeroes a strength behind the config's back: a debiasing
        # strength over the dpo preset trains the debiasing loss, labelled
        # modpp, with the text-only passes and no corrupted ones.
        config_path, _ = write_config(tmp_path)
        run = tmp_path / "run"
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path, ["train.preset=dpo"]) == 0
        dpo = (run / "policy.ckpt").read_bytes()
        capsys.readouterr()
        assert cli.run("train", config_path, ["train.preset=dpo", "train.hp.gamma_lpd=0.3"]) == 0
        assert capsys.readouterr().out.startswith("trained modpp for ")
        counters = json.loads((run / "counters.json").read_text())
        assert counters["loss_variant"] == "modpp"
        assert counters["per_pair_counters"] == [
            {"bwd_policy": 2, "bwd_ref": 0, "fwd_policy": 2, "fwd_ref": 4}]
        assert (run / "policy.ckpt").read_bytes() != dpo


class TestDeterminism:
    def test_synth_byte_identical(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        first = (tmp_path / "run" / "dataset.jsonl").read_bytes()
        assert cli.run("synth", config_path) == 0
        assert (tmp_path / "run" / "dataset.jsonl").read_bytes() == first

    def test_train_byte_identical(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        cli.run("synth", config_path)
        assert cli.run("train", config_path) == 0
        first = (tmp_path / "run" / "policy.ckpt").read_bytes()
        assert cli.run("train", config_path) == 0
        assert (tmp_path / "run" / "policy.ckpt").read_bytes() == first


class TestOverridesAndErrors:
    def test_dotted_override_changes_output(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path, ["synth.n_pairs=60"]) == 0
        stats = json.loads((tmp_path / "run" / "dataset.jsonl.stats.json").read_text())
        assert stats["n_records"] == 60

    def test_bad_override_is_config_error(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path, ["nonsense"]) == cli.EXIT_CONFIG

    def test_missing_dataset_is_missing_input(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("train", config_path) == cli.EXIT_MISSING

    def test_unparsable_config(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: [unclosed")
        assert cli.run("synth", bad) == cli.EXIT_CONFIG

    def test_nonexistent_config(self, tmp_path):
        assert cli.run("synth", tmp_path / "absent.yaml") == cli.EXIT_MISSING

    def test_unknown_preset(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        cli.run("synth", config_path)
        assert cli.run("train", config_path, ["train.preset=alchemy"]) == cli.EXIT_CONFIG

    def test_unknown_command(self):
        assert cli.run("fly") == cli.EXIT_CONFIG

    def test_config_via_environment(self, tmp_path, monkeypatch, capsys):
        config_path, _ = write_config(tmp_path)
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config_path))
        assert cli.main(["synth"]) == 0
        assert (tmp_path / "run" / "dataset.jsonl").exists()

    @pytest.mark.parametrize("override,key", [
        ("train.learnig_rate=5", "train.learnig_rate"),
        ("train.lpd_placement=outside", "train.lpd_placement"),
        ("train.alternate_batches=false", "train.alternate_batches"),
        ("train.hp.tau_mode=maintext", "tau_mode"),
    ])
    def test_unknown_train_setting_is_config_error(self, tmp_path, capsys, override, key):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        capsys.readouterr()
        assert cli.run("train", config_path, [override]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0], err
        assert not (tmp_path / "run" / "policy.ckpt").exists()

    @pytest.mark.parametrize("command,override,key", [
        ("synth", "synth.n_pairz=5", "synth.n_pairz"),
        ("synth", "synth.eval_items.n_itemz=5", "synth.eval_items.n_itemz"),
        ("eval", "eval.shift.sigmaa=2", "eval.shift.sigmaa"),
        ("report", "report.shift.tt=3", "report.shift.tt"),
        ("report", "report.out_prefx=x", "report.out_prefx"),
        ("verify", "verify.fsat=true", "verify.fsat"),
        ("train", "train.loss_variant=dpo", "train.loss_variant"),
        # Settings nothing varied, now constants.
        ("train", "train.warmup_lr=0.1", "train.warmup_lr"),
        ("eval", "eval.shift.sigma=1.0", "eval.shift.sigma"),
        ("report", "report.shift.sigma=1.0", "report.shift.sigma"),
        # Names outside the fields of the class a mapping builds.
        ("train", "train.corruption.sigma=1.0", "train.corruption.sigma"),
        ("train", "train.hp.tau_mode=1", "train.hp.tau_mode"),
    ])
    def test_unknown_section_setting_is_config_error(self, tmp_path, capsys, command, override,
                                                     key):
        config_path, _ = write_config(tmp_path)
        assert cli.run(command, config_path, [override]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: unknown {command} setting {key}"]
        assert not (tmp_path / "run" / f"{command}.config.yaml").exists()

    @pytest.mark.parametrize("command,override,section", [
        *(pytest.param(command, f"{command}={value}", command, id=f"{value}-{command}")
          for value in ("null", "5") for command in cli.COMMANDS),
        # train.hp and train.corruption are sections too, whatever command
        # reads the config.
        pytest.param("train", "train.hp=5", "train.hp", id="5-train.hp"),
        pytest.param("train", "train.corruption=[1]", "train.corruption",
                     id="list-train.corruption"),
        pytest.param("synth", "train.hp=5", "train.hp", id="5-synth-train.hp"),
    ])
    def test_section_that_is_not_a_mapping_is_config_error(self, tmp_path, capsys, command,
                                                           override, section):
        config_path, _ = write_config(tmp_path)
        assert cli.run(command, config_path, [override]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"config section {section} must be a mapping" in err[0], err
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("order", ["config first", "command first"])
    def test_config_option_before_or_after_command(self, tmp_path, order):
        config_path, _ = write_config(tmp_path)
        argv = {"config first": ["-c", str(config_path), "synth", "synth.n_pairs=60"],
                "command first": ["synth", "-c", str(config_path), "synth.n_pairs=60"]}[order]
        assert cli.main(argv) == 0
        stats = json.loads((tmp_path / "run" / "dataset.jsonl.stats.json").read_text())
        assert stats["n_records"] == 60


class TestBadRecords:
    @pytest.mark.parametrize("line,needle", [
        ('"y_w": 99', "y_w 99 outside [0, 8)"),
        ('"y_w": -1', "y_w -1 outside [0, 8)"),
        ('"y_w": 1.5', "y_w 1.5 is not an integer"),
        (None, "invalid JSON"),
    ])
    def test_train_rejects_bad_line_with_one_message(self, tmp_path, capsys, line, needle):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        dataset = tmp_path / "run" / "dataset.jsonl"
        lines = dataset.read_text().splitlines()
        if line is None:
            lines[2] = lines[2][: len(lines[2]) // 2]  # truncated record
        else:
            lines[2] = lines[2].replace(f'"y_w": {json.loads(lines[2])["y_w"]}', line)
        dataset.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.run("train", config_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{dataset}, line 3: {needle}" in err[0], err

    @pytest.mark.parametrize("command,data,field,edit,needle", [
        pytest.param("train", "dataset.jsonl", "audio_feat", lambda v: v[:7],
                     "audio_feat has 7 values, expected 8",
                     id="train-dataset.jsonl-audio_feat-short"),
        pytest.param("train", "dataset.jsonl", "audio_feat",
                     lambda v: v[:2] + [float("nan")] + v[3:],
                     "audio_feat holds a non-finite value",
                     id="train-dataset.jsonl-audio_feat-nan"),
        pytest.param("train", "dataset.jsonl", "audio_feat", lambda v: [str(v[0])] + v[1:],
                     "audio_feat is not a list of numbers",
                     id="train-dataset.jsonl-audio_feat-string"),
        pytest.param("eval", "eval_items.jsonl", "visual_feat", lambda v: v[:7],
                     "visual_feat has 7 values, expected 8",
                     id="eval-eval_items.jsonl-visual_feat-short"),
    ])
    def test_bad_feature_row_rejected_with_one_message(self, tmp_path, capsys, command, data,
                                                       field, edit, needle):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        if command == "eval":
            assert cli.run("train", config_path) == 0
        path = tmp_path / "run" / data
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        rec[field] = edit(rec[field])
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.run(command, config_path) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}, line 4: {needle}"], err


def _break_checkpoint(lines):
    """Checkpoint faults: (name, edit of the file's lines, line and problem
    the error must name).  Lines are 0-based here, 1-based in messages."""
    u_a_width = len(lines[2].split())
    e_x = next(i for i, line in enumerate(lines) if line.startswith("tensor e_x"))
    n_prompts, d_h = map(int, lines[e_x].split()[2:])
    e_x_rows = slice(e_x + 1, e_x + 1 + n_prompts)

    def replace_line(i, text):
        return lambda ls: ls[:i] + [text] + ls[i + 1:]

    return [
        ("bad header", replace_line(0, "modlab-checkpoint v0"),
         "line 1: not a checkpoint"),
        ("truncated tensor", lambda ls: ls[:5],
         "line 5: tensor u_a ends after 3 of 16 rows"),
        ("non-numeric value", replace_line(3, lines[3].replace(lines[3].split()[1], "0.1x", 1)),
         "line 4: non-numeric value in tensor u_a"),
        ("wrong row length", replace_line(2, " ".join(lines[2].split()[:-1])),
         f"line 3: tensor u_a row has {u_a_width - 1} values, expected {u_a_width}"),
        ("shapes disagree",  # e_x loses its last column, so its d_h disagrees with u_a's
         lambda ls: ls[:e_x] + [f"tensor e_x {n_prompts} {d_h - 1}"]
         + [" ".join(row.split()[:-1]) for row in ls[e_x_rows]] + ls[e_x_rows.stop:],
         f"line {e_x + 1}: tensor e_x has {d_h - 1} columns but u_a has {d_h} rows"),
    ]


class TestBadCheckpoints:
    @pytest.mark.parametrize("fault", ["bad header", "truncated tensor", "non-numeric value",
                                       "wrong row length", "shapes disagree"])
    def test_eval_rejects_bad_checkpoint_with_one_message(self, tmp_path, capsys, fault):
        config_path, _ = write_config(tmp_path, train={"preset": "dpo", "lr": 0.2, "epochs": 1,
                                                       "warmup_steps": 5})
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path) == 0
        good = tmp_path / "run" / "policy.ckpt"
        lines = good.read_text().splitlines()
        edit, needle = {name: (e, n) for name, e, n in _break_checkpoint(lines)}[fault]
        bad = tmp_path / "bad.ckpt"
        bad.write_text("\n".join(edit(lines)) + "\n")
        capsys.readouterr()
        assert cli.run("eval", config_path, [f"eval.checkpoint={bad}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{bad}, {needle}" in err[0], err

    @pytest.mark.parametrize("command,override,data", [
        ("train", "train.reference", "dataset.jsonl"),
        ("eval", "eval.checkpoint", "eval_items.jsonl"),
        ("report", "report.checkpoints.small", "eval_items.jsonl"),
    ])
    def test_checkpoint_dims_must_match_data(self, tmp_path, capsys, command, override, data):
        config_path, _ = write_config(tmp_path, train={"preset": "dpo", "lr": 0.2, "epochs": 1,
                                                       "warmup_steps": 5})
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path) == 0
        small = tmp_path / "small.ckpt"
        save_checkpoint(init_params(d_a=4), small)
        capsys.readouterr()
        assert cli.run(command, config_path, [f"{override}={small}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: checkpoint {small} has d_a=4, d_v=8 but "
                       f"{tmp_path / 'run' / data} has d_a=8, d_v=8"], err

    @pytest.mark.parametrize("command,override,data,size", [
        pytest.param("eval", "eval.checkpoint", "eval_items.jsonl", {"n_prompts": 4},
                     id="eval-eval.checkpoint-n_prompts"),
        pytest.param("train", "train.reference", "dataset.jsonl", {"vocab_size": 4},
                     id="train-train.reference-vocab_size"),
        pytest.param("eval", "eval.checkpoint", "eval_items.jsonl", {"vocab_size": 4},
                     id="eval-eval.checkpoint-vocab_size"),
    ])
    def test_checkpoint_must_cover_prompts_and_vocabulary(self, tmp_path, capsys, command,
                                                          override, data, size):
        config_path, _ = write_config(tmp_path, train={"preset": "dpo", "lr": 0.2, "epochs": 1,
                                                       "warmup_steps": 5})
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path) == 0
        small = tmp_path / "small.ckpt"
        save_checkpoint(init_params(**size), small)
        path = tmp_path / "run" / data
        needed = 1 + max(json.loads(line)["prompt_id"] for line in path.read_text().splitlines())
        capsys.readouterr()
        assert cli.run(command, config_path, [f"{override}={small}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        if "n_prompts" in size:
            sizes = f"n_prompts=4 but {path} needs n_prompts>={needed}"
        else:
            sizes = f"vocab_size=4 but {path} needs vocab_size=8"
        assert err == [f"error: checkpoint {small} has {sizes}"], err


class TestDivergingRun:
    def test_train_exits_1_naming_step_and_loss(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        capsys.readouterr()
        assert cli.run("train", config_path, ["train.lr=1.0e+9"]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "training diverged at step 1: loss" in err[0], err
        assert not (tmp_path / "run" / "policy.ckpt").exists()

    def test_a_diverged_reference_exits_1_before_step_0_naming_row_and_slot(self, tmp_path,
                                                                             capsys):
        # A finite checkpoint whose forward overflows: every table entry is nan.
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        ref = init_params()  # the shapes of the written dataset
        ref.e_x[:], ref.w_out[0] = 1e3, 1e308
        save_checkpoint(ref, tmp_path / "diverged.ckpt")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would add a line
            code = cli.run("train", config_path, [f"train.reference={tmp_path / 'diverged.ckpt'}"])
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.splitlines() == [
            "error: reference diverged: row 0 ref_w is nan, not a finite log-probability <= 0"]
        assert not (tmp_path / "run" / "policy.ckpt").exists()


class TestConfigParsing:
    def test_exponent_floats_without_a_dot(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("seed: 0\ntrain:\n  lr: 1e-4\nsynth:\n  feature_noise: 2.5E+1\n")
        cfg = cli.load_config(path, [])
        assert cfg["train"]["lr"] == 1e-4 and cfg["synth"]["feature_noise"] == 25.0
        cfg = cli.load_config(path, ["train.lr=3e-7", "train.preset=dpo"])
        assert cfg["train"]["lr"] == 3e-7 and cfg["train"]["preset"] == "dpo"
        assert cli.build_train_config(cfg["train"], 0).lr == 3e-7

    # The ids keep the names these cases were first recorded under.
    @pytest.mark.parametrize("overrides,key,want", [
        pytest.param(["train.preset=modpp_desk", "train.hp.beta=0.2"], "hp",
                     Hyperparams(beta=0.2, beta_inv=0.08, beta_sens=0.02, gamma_lpd=0.02),
                     id="overrides0-hp-want0"),
        pytest.param(["train.preset=modpp_swap", "train.corruption.t=10"], "corruption",
                     CorruptionSpec(kind="random_swap", t=10), id="overrides1-corruption-want1"),
    ])
    def test_partial_mapping_keeps_the_presets_other_fields(self, tmp_path, overrides, key,
                                                           want):
        path = tmp_path / "config.yaml"
        path.write_text("seed: 0\n")
        cfg = cli.load_config(path, overrides)
        assert getattr(cli.build_train_config(cfg["train"], 0), key) == want


class TestReportCounters:
    def test_one_counter_line_per_run_directory(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        run, other = tmp_path / "run", tmp_path / "other"
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path) == 0
        assert cli.run("train", config_path, [f"out_dir={other}", "train.preset=dpo",
                                              f"train.dataset={run / 'dataset.jsonl'}"]) == 0
        capsys.readouterr()
        overrides = [f"report.checkpoints.{name}={path}" for name, path in (
            ("dpo", other / "policy.ckpt"), ("modpp", run / "policy.ckpt"),
            ("reference", run / "reference.ckpt"))]
        assert cli.run("report", config_path, overrides) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if line.startswith("counters")] == [
            "counters [dpo] near dpo: (2,2,2,0) per pair",
            "counters [modpp] near modpp: (6,4,2,0) per pair",
        ]


class TestMatchingItems:
    def test_eval_handles_audiovisual_matching_probes(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        overrides = ["synth.eval_items.matching_fraction=0.1",
                     "synth.eval_items.dominance_fraction=0.1"]
        assert cli.run("synth", config_path, overrides) == 0
        assert cli.run("train", config_path) == 0
        assert cli.run("eval", config_path) == 0
        metrics = (tmp_path / "run" / "metrics.csv").read_text()
        assert "matching" in metrics and "dominance" in metrics
        lines = metrics.splitlines()
        assert lines[0] == ("group,accuracy,precision,recall,f1,pa,hr,"
                            "yes_correct,yes_total,no_correct,no_total")
        # Dominance probes are all "no": precision, f1 and pa are undefined
        # and written as empty cells.
        cells = next(line for line in lines if line.startswith("dominance,")).split(",")
        assert cells[2] == cells[4] == cells[5] == "" and cells[8] == "0"
        assert all(len(cells[i].split(".")[1]) == 4 for i in (1, 3, 6))


class TestUndefinedMetrics:
    """A metric whose stratum is empty prints as "-" and is an empty cell."""

    @pytest.mark.parametrize("keep,line,empty", [
        ("none", "overall: acc=- pa=- hr=- f1=- on 0 items", {1, 2, 3, 4, 5, 6}),
        ("yes", " hr=- f1=- on 40 items", {3, 4, 6}),  # no "no" items
    ], ids=["empty-file", "only-yes-items"])
    def test_eval_prints_an_undefined_metric_as_a_dash(self, tmp_path, capsys, keep, line, empty):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path) == 0
        items = tmp_path / "run" / "eval_items.jsonl"
        items.write_text("".join(rec + "\n" for rec in items.read_text().splitlines()
                                 if json.loads(rec)["ground_truth"] == keep))
        capsys.readouterr()
        assert cli.run("eval", config_path) == 0
        [overall] = [out for out in capsys.readouterr().out.splitlines()
                     if out.startswith("overall:")]
        assert overall.endswith(line)
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        cells = next(row for row in metrics if row.startswith("overall,")).split(",")
        assert {i for i, cell in enumerate(cells) if not cell} == empty


class TestVerifyCommand:
    def test_verify_passes_on_clean_build(self, capsys):
        # trimmed suite sizes keep this test quick; the acceptance module
        # runs the full-size battery
        code = cli.run("verify", None, ["verify.fast=true"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out

    def test_prints_each_suite_seconds_to_two_decimals(self, capsys, monkeypatch):
        results = [oracles.SuiteResult("closed_form", True, "worst L1 2.00e-09", 0.0612),
                   oracles.SuiteResult("metrics", False, "hand tally mismatch", 1.5)]
        monkeypatch.setattr(oracles, "run_all", lambda fast, seed: results)
        assert cli.run("verify", None, []) == cli.EXIT_VERIFY
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] closed_form: worst L1 2.00e-09 (0.06s)",
            "[FAIL] metrics: hand tally mismatch (1.50s)",
            "1 suite(s) failed",
        ]


@pytest.fixture(scope="module")
def built_run(tmp_path_factory):
    """A synth + train run of the small test config; its files are inputs only."""
    tmp_path = tmp_path_factory.mktemp("built")
    config_path, _ = write_config(tmp_path)
    assert cli.run("synth", config_path) == 0
    assert cli.run("train", config_path) == 0
    return tmp_path / "run"


def _inputs(run, command):
    """Overrides pointing a command at the inputs of a built run."""
    return {"synth": [], "verify": [],
            "train": [f"train.dataset={run / 'dataset.jsonl'}"],
            "eval": [f"eval.checkpoint={run / 'policy.ckpt'}",
                     f"eval.items={run / 'eval_items.jsonl'}"],
            "report": [f"report.checkpoints.policy={run / 'policy.ckpt'}",
                       f"report.items={run / 'eval_items.jsonl'}"]}[command]


class TestPathKinds:
    """A directory where a command reads or writes a file ends in one line."""

    @pytest.mark.parametrize("command,setting", [
        ("eval", "eval.checkpoint"), ("train", "train.dataset"), ("eval", "eval.items")])
    def test_directory_input_exits_3(self, tmp_path, capsys, built_run, command, setting):
        overrides = _inputs(built_run, command) + [f"out_dir={tmp_path / 'o'}",
                                                   f"{setting}={tmp_path}"]
        assert cli.run(command, None, overrides) == cli.EXIT_MISSING
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"is not a regular file: {tmp_path}"), err

    def test_directory_output_exits_2_naming_it(self, tmp_path, capsys, built_run):
        taken = tmp_path / "o" / "taken"
        taken.mkdir(parents=True)
        overrides = _inputs(built_run, "train") + [f"out_dir={tmp_path / 'o'}",
                                                   "train.checkpoint=taken"]
        assert cli.run("train", None, overrides) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: output {taken} is an existing directory"]


class TestOutputPaths:
    """An output whose directory cannot be created exits 2 with one line."""

    def test_out_dir_that_is_a_regular_file_exits_2(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.run("synth", None, [f"out_dir={taken}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot create the directory of output {taken / 'dataset.jsonl'}: "
                       "File exists"]

    def test_an_output_directory_the_system_refuses_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(path, exist_ok=False):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)

        out = tmp_path / "nope" / "x.jsonl"
        monkeypatch.setattr(cli.os, "makedirs", refuse)
        assert cli.run("synth", None, [f"synth.out={out}"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot create the directory of output {out}: "
                       "No such file or directory"]


class TestDefaultPipelineBytes:
    """sha256 of every file the default synth, train, eval and report write
    under the default out_dir, taken before the defaults were read from the
    config classes and the two generators shared one column assembly.  The
    four config snapshots were taken again when the shift sections lost
    sigma and train lost warmup_lr, and again when train.hp and
    train.corruption became sections of null leaves; the other files kept
    their bytes.  The values hold for the numpy build and LAPACK of the host
    they were taken on."""

    SHA256 = {
        "comparison.csv": "01786f7acd3c54dff4d0989a7ca9bf5fa7e67e76ed3967713cb50ad43a1eff7c",
        "comparison.txt": "1968958bca20305de743be60a599eb83414c7cf5adee291bbe52acf76860526f",
        "counters.json": "b16c6764559ccdc53140d79bec7a7037ebd10c72a8932a34310eddf89dfd8572",
        "dataset.jsonl": "a51ad7f2d62f54ebd3eb7efee8c0ebeafb69c1651c3583c8834a4e19f101a565",
        "dataset.jsonl.stats.json":
            "008ff2129c7b53a274de6652546d3201f65d005905db3f6a6c73f12ed6b633bc",
        "eval.config.yaml": "4cd62672fa6f8df752a31a3b5cb91c885dc6dcd060f8e12503da68e11d567436",
        "eval_items.jsonl": "37926aad858de274a564ee9aeea0abd46c67337d248575f8eef6deef6d49af48",
        "eval_items.jsonl.stats.json":
            "2f97f59ada39e6f3854bb42de193e9b7f9ce266e449e0be351a2c36c54ec89a7",
        "loss_trace.csv": "4d5a4684d3aa36e2db5a2868f75232060e2822aec625ba4d702b1965981614b8",
        "metrics.csv": "291c862a6afe93e1d8d3023f9d8ff6932d9aecd5f5f42bfa3b6af897598da268",
        "metrics_shift_irrelevant.csv":
            "c1d02e092f8e704b8fa12296e29f54ccaf38f65323b63540d3a4af6f2663e1e8",
        "metrics_shift_relevant.csv":
            "e22e164a988589932096fd2ce03705eef8b0c411f70b35ace2e5722ede749c4f",
        "policy.ckpt": "f4dc7b15cd96e5516a7efe9a2e6f4823119510bb2281246e7416ee0fea823512",
        "reference.ckpt": "55afeb3ea2f62e8a903cbe0170c3d71f9c2d88f97d428dcee555f3fc986bc281",
        "report.config.yaml": "4cd62672fa6f8df752a31a3b5cb91c885dc6dcd060f8e12503da68e11d567436",
        "synth.config.yaml": "4cd62672fa6f8df752a31a3b5cb91c885dc6dcd060f8e12503da68e11d567436",
        "train.config.yaml": "4cd62672fa6f8df752a31a3b5cb91c885dc6dcd060f8e12503da68e11d567436",
    }

    def test_the_default_pipeline_writes_the_pinned_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for command in ("synth", "train", "eval", "report"):
            assert cli.run(command) == cli.EXIT_OK
        out = tmp_path / "runs" / "demo"
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == self.SHA256


class TestMalformedCounters:
    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        json.dumps({"loss_variant": "modpp",
                    "per_pair_counters": [{"fwd_policy": 6, "bwd_policy": 2, "bwd_ref": 0}]}),
        json.dumps({"a": 1}),
        json.dumps({"loss_variant": 5, "per_pair_counters": [
            {"fwd_policy": 6, "fwd_ref": 4, "bwd_policy": 2, "bwd_ref": 0}]}),
    ])
    def test_report_exits_2_naming_the_file(self, tmp_path, capsys, built_run, text):
        model = tmp_path / "model"
        model.mkdir()
        (model / "policy.ckpt").write_bytes((built_run / "policy.ckpt").read_bytes())
        (model / "counters.json").write_text(text)
        overrides = [f"out_dir={tmp_path / 'o'}", f"report.items={built_run / 'eval_items.jsonl'}",
                     f"report.checkpoints.policy={model / 'policy.ckpt'}"]
        assert cli.run("report", None, overrides) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"counters file {model / 'counters.json'} " in err[0], err
        assert not (tmp_path / "o").exists()


class TestConfigSchema:
    @pytest.mark.parametrize("command,override,needle", [
        ("eval", "eval.shift.kind=blur", "eval.shift"),
        ("eval", "eval.shift.t=abc", "eval.shift.t"),
        ("eval", "eval.shift.t=10.9", "eval.shift.t"),
        ("report", "report.shift.t=5000", "report.shift"),
        ("synth", "synth.n_pairs=1.7", "synth.n_pairs"),
        ("synth", "synth.matched_bias=abc", "synth.matched_bias"),
        ("synth", "synth.matched_bias=[0.5,0.5]", "matched_bias"),
        ("synth", "synth.matched_bias=1.5", "matched_bias"),
        ("synth", "synth.feature_noise=-1", "feature_noise"),
        ("synth", "synth.out=null", "synth.out"),
        ("train", "train.checkpoint=null", "train.checkpoint"),
        ("synth", "out_dir=null", "out_dir"),
        ("eval", "eval.out_prefix=null", "eval.out_prefix"),
        ("train", "trian.lr=0.5", "trian"),
        ("verify", "verify.fast=maybe", "verify.fast"),
        ("train", "train.epochs=1.5", "train.epochs"),
        ("train", "train.batch_size=2.5", "batch_size"),
        ("train", "train.warmup_steps=10.5", "warmup_steps"),
        ("train", "train.warmup_lr=abc", "warmup_lr"),
        ("train", "train.hp.beta=abc", "train.hp"),
        ("report", "report.checkpoints.other=5", "report.checkpoints.other"),
    ])
    def test_bad_setting_exits_2_naming_it(self, tmp_path, capsys, built_run, command, override,
                                           needle):
        config_path, _ = write_config(tmp_path)
        capsys.readouterr()
        code = cli.run(command, config_path, [*_inputs(built_run, command), override])
        err = capsys.readouterr().err.splitlines()
        assert code == cli.EXIT_CONFIG, err
        assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0], err
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    @pytest.mark.parametrize("command,key", [
        ("train", "train.hp.beta"),
        ("train", "train.corruption.kind"),
        ("train", "train.batch_size"),
        ("eval", "eval.checkpoint"),
    ])
    def test_a_mapping_where_a_value_goes_exits_2(self, tmp_path, capsys, command, key):
        # Every mapping of a resolved config is a section of the schema.
        config_path, _ = write_config(tmp_path)
        assert cli.run(command, config_path, [f"{key}={{a: 1}}"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: setting {key} must be a value, not a mapping, got {{'a': 1}}"]

    def test_random_swap_shift_uses_the_items_as_pool(self, tmp_path, built_run):
        config_path, _ = write_config(tmp_path)
        assert cli.run("eval", config_path,
                       [*_inputs(built_run, "eval"), "eval.shift.kind=random_swap"]) == 0
        assert (tmp_path / "run" / "metrics_shift_relevant.csv").exists()

    def test_null_eval_items_are_skipped(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path, ["synth.eval_items=null"]) == 0
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "dataset.jsonl", "dataset.jsonl.stats.json", "synth.config.yaml"]

    def test_null_shift_runs_at_the_spec_defaults(self, tmp_path, built_run):
        config_path, _ = write_config(tmp_path)
        run = tmp_path / "run"
        histograms = {}
        for shift in ("eval.shift=null", "eval.shift.t=500"):
            assert cli.run("eval", config_path, [*_inputs(built_run, "eval"), shift]) == 0
            histograms[shift] = (run / "metrics_shift_relevant.csv").read_bytes()
        assert histograms["eval.shift=null"] == histograms["eval.shift.t=500"]

    def test_every_setting_is_in_the_snapshot(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        snapshot = yaml.safe_load((tmp_path / "run" / "synth.config.yaml").read_text())

        def keys(tree, prefix=""):
            out = set()
            for key, value in tree.items():
                out.add(prefix + key)
                if isinstance(value, dict):
                    out |= keys(value, f"{prefix}{key}.")
            return out

        assert keys(snapshot) == keys(cli.default_config())

    def test_snapshot_reruns_byte_identical(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        run = tmp_path / "run"
        commands = ("synth", "train", "eval", "report")
        for command in commands:
            assert cli.run(command, config_path) == 0
        first = {p.name: p.read_bytes() for p in run.iterdir()}
        for command in commands:
            assert cli.run(command, run / f"{command}.config.yaml") == 0
            assert {p.name: p.read_bytes() for p in run.iterdir()} == first, command


class TestSettingValues:
    """A value that passes the schema's null defaults is checked by the class
    built from it: exit 2 and one line naming the setting, before any output.
    So is a setting that became a constant (warmup_lr, a corruption's sigma
    or seed).  The ids keep the names these cases were first recorded
    under; a new case takes the next number."""

    @pytest.mark.parametrize("command,overrides,needles", [
        pytest.param("train", ["train.corruption.t=10.5"],
                     ("train.corruption", "t must be an integer"), id="train-overrides0-needles0"),
        pytest.param("train", ["train.corruption.t=true"],
                     ("train.corruption", "t must be an integer"), id="train-overrides1-needles1"),
        pytest.param("train", ["train.hp.beta=true"], ("train.hp", "beta must be a number"),
                     id="train-overrides2-needles2"),
        pytest.param("train", ["train.warmup_lr=0.1"],
                     ("unknown train setting train.warmup_lr",), id="train-overrides3-needles3"),
        pytest.param("train", ["train.hp.beta=abc"], ("train.hp", "beta must be a number"),
                     id="train-overrides4-needles4"),
        pytest.param("train", ["train.corruption.sigma=1.0"], ("train.corruption", "sigma"),
                     id="train-overrides5-needles5"),
        pytest.param("train", ["seed=-1"], ("seed must lie in",), id="train-overrides6-needles6"),
        pytest.param("eval", ["seed=-1"], ("seed must lie in",), id="eval-overrides7-needles7"),
        pytest.param("synth", ["synth.world_seed=-3"], ("synth", "world_seed must lie in"),
                     id="synth-overrides8-needles8"),
        pytest.param("synth", ["synth.n_scenes=1", "synth.matched_fraction=1.0"],
                     ("synth.eval_items", "at least two scenes"), id="synth-overrides9-needles9"),
        pytest.param("train", ["train.corruption.seed=1"], ("train.corruption", "seed"),
                     id="train-overrides10-needles10"),
        pytest.param("verify", ["seed=-1"], ("seed must lie in",),
                     id="verify-overrides11-needles11"),
    ])
    def test_bad_value_exits_2_naming_it(self, tmp_path, capsys, built_run, command, overrides,
                                         needles):
        config_path, _ = write_config(tmp_path)
        capsys.readouterr()
        code = cli.run(command, config_path, [*_inputs(built_run, command), *overrides])
        err = capsys.readouterr().err.splitlines()
        assert code == cli.EXIT_CONFIG, err
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert all(needle in err[0] for needle in needles), err
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    def test_failed_generation_writes_no_file(self, tmp_path, capsys):
        # The pairs can be built from one scene, the balanced eval items
        # cannot: synth fails before it writes either file.
        config_path, _ = write_config(tmp_path)
        code = cli.run("synth", config_path, [
            "synth.n_pairs=50", "synth.n_scenes=1", "synth.matched_fraction=1.0",
            "synth.eval_items.matched_fraction=1.0", "synth.eval_items.n_items=20"])
        err = capsys.readouterr().err.splitlines()
        assert code == cli.EXIT_CONFIG, err
        assert len(err) == 1 and "could not balance the presence items" in err[0], err
        assert not (tmp_path / "run").exists() or not any((tmp_path / "run").iterdir())

    def test_random_swap_without_a_distinct_vector_exits_2(self, tmp_path):
        # One noiseless scene gives every pair the same feature vectors, so
        # random_swap has nothing to swap in: one line, exit 2, no checkpoint.
        out = tmp_path / "o"
        assert cli.main(["synth", f"out_dir={out}", "synth.n_scenes=1",
                         "synth.matched_fraction=1.0", "synth.feature_noise=0.0",
                         "synth.n_pairs=40", "synth.eval_items=null"]) == 0
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "modlab.cli", "train", f"out_dir={out}",
             "train.preset=modpp_swap", "train.warmup_steps=5", "train.epochs=1"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        err = proc.stderr.splitlines()
        assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
        assert len(err) == 1 and err[0].startswith("error: random_swap"), err
        assert "Traceback" not in proc.stderr
        assert not (out / "policy.ckpt").exists()


def _renamed_config(tmp_path, checkpoint):
    """The test config with every artifact name the later commands read set
    to a non-default one."""
    _, cfg = write_config(tmp_path)
    cfg["synth"]["out"] = "pairs.jsonl"
    cfg["synth"]["eval_items"]["out"] = "probes.jsonl"
    cfg["train"].update(checkpoint=checkpoint, counters="passes.json")
    path = tmp_path / "renamed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


class TestArtifactNames:
    """A null input path is the file its writer was told to write."""

    def test_renamed_artifacts_run_end_to_end(self, tmp_path, capsys):
        config_path = _renamed_config(tmp_path, "models/final.ckpt")
        run = tmp_path / "run"
        for command in ("synth", "train", "eval", "report"):
            assert cli.run(command, config_path) == 0, capsys.readouterr().err
        assert (run / "models" / "final.ckpt").exists() and (run / "passes.json").exists()
        assert (run / "metrics.csv").exists() and (run / "comparison.txt").exists()
        for default in ("dataset.jsonl", "eval_items.jsonl", "policy.ckpt", "counters.json"):
            assert not (run / default).exists(), default
        lines = capsys.readouterr().out.splitlines()
        assert "counters [modpp] near policy: (6,4,2,0) per pair" in lines

    def test_nested_checkpoint_name_is_written(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert cli.run("synth", config_path) == 0
        assert cli.run("train", config_path, ["train.checkpoint=sub/policy.ckpt"]) == 0
        assert (tmp_path / "run" / "sub" / "policy.ckpt").exists()
        assert cli.run("eval", config_path, ["train.checkpoint=sub/policy.ckpt"]) == 0

    def test_report_reads_the_counters_train_wrote(self, tmp_path, capsys):
        config_path = _renamed_config(tmp_path, "policy.ckpt")
        for command in ("synth", "train"):
            assert cli.run(command, config_path) == 0
        capsys.readouterr()
        assert cli.run("report", config_path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("counters")] == [
            "counters [modpp] near policy: (6,4,2,0) per pair"]

    def test_eval_items_unset_when_synth_writes_none(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        capsys.readouterr()
        assert cli.run("report", config_path, ["synth.eval_items=null"]) == cli.EXIT_MISSING
        assert capsys.readouterr().err == (
            "error: no eval items: report.items and synth.eval_items are null\n")
