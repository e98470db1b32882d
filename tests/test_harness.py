"""Configuration, scenario artifacts, sweeps, and the command line."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from renforge import (ConfigurationError, GrowthConfig, InvalidParameterError,
                      run_until_balanced)
from renforge.cli import main
from renforge.harness import (ALL_FIRING_GROWTH, ExperimentConfig, build_direct_unit,
                              config_from_json, config_to_json, load_config,
                              run_scenario, sweep, sweeps)
from renforge.harness.artifacts import read_lines


class TestConfig:
    def test_defaults_round_trip(self):
        config = config_from_json(config_to_json(ExperimentConfig()))
        assert config == ExperimentConfig()

    def test_full_round_trip(self):
        config = ExperimentConfig(
            seed=42, scenario="fig4_trees",
            growth=GrowthConfig(bud_threshold=1.5, window=12),
            max_ticks=123, output_dir="elsewhere")
        assert config_from_json(config_to_json(config)) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_json('{"seed": 1, "mystery": true}')

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_json("{not json")

    def test_bad_growth_value_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_json('{"growth": {"bud_threshold": -1}}')

    @pytest.mark.parametrize("text, message", [
        ('{"growth": {"threshold_policy": "all"}}', "unknown growth keys: ['threshold_policy']"),
        (config_to_json(ExperimentConfig()).replace(
            '"close_cutoff": 0.05', '"close_cutoff": 0.05, "threshold_policy": "all"'),
         "unknown growth keys: ['threshold_policy']"),
        ('{"growth": {"window": 4, "bogus": 1}}', "unknown growth keys: ['bogus']"),
        ('{"growth": null}', "growth must be a JSON object"),
        ('{"growth": [["window", 4]]}', "growth must be a JSON object"),
    ])
    def test_growth_must_be_an_object_of_known_keys(self, text, message):
        with pytest.raises(ConfigurationError) as caught:
            config_from_json(text)
        assert str(caught.value) == message

    def test_unknown_schedule_rejected(self):
        # schedule_probability alone sets the drive; the old switch is no key.
        for schedule in ("all_firing", "random_subset"):
            with pytest.raises(ConfigurationError) as caught:
                config_from_json(f'{{"schedule": "{schedule}"}}')
            assert str(caught.value) == "unknown configuration keys: ['schedule']"

    @pytest.mark.parametrize("kwargs", [
        {"sweep_inputs": []},
        {"sweep_thresholds": []},
        {"schedule_probability": 7.5},
        {"schedule_probability": -0.1},
        {"max_ticks": 0},
        {"sweep_inputs": ["a"]},
        {"sweep_inputs": [0]},
        {"sweep_inputs": [10, -5]},
        {"sweep_inputs": [10 ** 9]},
        {"sweep_thresholds": [0.0]},
        {"sweep_thresholds": [-1.0]},
        {"seed": [1]},
        {"seed": 1.0},
        {"output_dir": 5},
        {"output_dir": ""},
        {"output_dir": "a\0b"},
        {"scenario": []},
    ])
    def test_invalid_values_rejected_when_built(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)

    def test_seed_comes_from_the_file_alone(self, tmp_path, monkeypatch):
        # sweep.csv records no master seed, so a variable that set one would
        # change the artifacts while the config file said otherwise.
        path = tmp_path / "config.json"
        path.write_text(config_to_json(ExperimentConfig(seed=1)), encoding="utf-8")
        monkeypatch.setenv("RENFORGE_SEED", "77")
        assert load_config(path) == ExperimentConfig(seed=1)

    @pytest.mark.parametrize("name, value", [
        ("seed", 5), ("sweep_inputs", [10 ** 9]), ("max_ticks", 0)])
    def test_built_config_is_frozen(self, name, value):
        config = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        assert config == ExperimentConfig()

    def test_sweep_lists_are_kept_as_tuples(self):
        config = ExperimentConfig(sweep_inputs=[10, 25], sweep_thresholds=[5.0])
        assert config == ExperimentConfig(sweep_inputs=(10, 25), sweep_thresholds=(5.0,))
        with pytest.raises(AttributeError):
            config.sweep_inputs.append(10 ** 9)
        assert dataclasses.replace(config, seed=3).sweep_inputs == (10, 25)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "absent.json")

    def test_config_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match="not UTF-8 text"):
            load_config(path)


class TestReadLines:
    @pytest.mark.parametrize("error, kwargs", [
        (InvalidParameterError, {}),
        (ConfigurationError, {"error": ConfigurationError}),
    ])
    def test_messages_and_line_ends(self, tmp_path, error, kwargs):
        for path in (tmp_path / "absent.txt", tmp_path):
            with pytest.raises(error, match="cannot read"):
                list(read_lines(path, **kwargs))
        path = tmp_path / "text.txt"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(error, match="not UTF-8 text"):
            list(read_lines(path, **kwargs))
        path.write_bytes(b"a b\r\nc\r\n")
        assert list(read_lines(path, **kwargs)) == ["a b\n", "c\n"]


class TestRunScenario:
    def test_unknown_scenario(self, tmp_path):
        config = ExperimentConfig(scenario="fig9_dreams", output_dir=str(tmp_path))
        with pytest.raises(ConfigurationError):
            run_scenario(config)

    def test_fig2_artifacts(self, tmp_path):
        config = ExperimentConfig(scenario="fig2_growth",
                                  output_dir=str(tmp_path), max_ticks=200)
        summary = run_scenario(config)
        for name in ("metrics.csv", "events.csv", "network.json", "summary.json"):
            assert (tmp_path / name).exists()
        metrics = (tmp_path / "metrics.csv").read_text(encoding="utf-8")
        lines = metrics.splitlines()
        assert lines[0] == "tick,fired_count,total_excess,turbulence_total,intermediaries_created,balanced_flag"
        ticks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ticks == sorted(ticks) and len(set(ticks)) == len(ticks)
        assert "\r" not in metrics
        assert summary["balanced"] is True

    def test_fig4_summary(self, tmp_path):
        summary = run_scenario(ExperimentConfig(scenario="fig4_trees",
                                                output_dir=str(tmp_path)))
        assert summary["trees"] == 2
        assert summary["links"] == [{"from": "cat", "to": "drank", "label": "M"}]
        assert summary["count_rule_valid"] is True
        assert summary["query_paths"][0]["complete"] is True

    def test_fig3_summary(self, tmp_path):
        summary = run_scenario(ExperimentConfig(scenario="fig3_cluster",
                                                output_dir=str(tmp_path)))
        assert summary["hidden_nodes"] == 3
        assert summary["global_concepts"] == 1
        assert [entry[0] for entry in summary["retrieve_gc0"]] == [
            ["c0", "c1", "c2"], ["c1", "c2", "c3"], ["c2", "c3", "c4"]]

    def test_fig6_summary(self, tmp_path):
        summary = run_scenario(ExperimentConfig(scenario="fig6_stack",
                                                output_dir=str(tmp_path)))
        assert summary["completed"] is True
        assert summary["retrieve_gc0"]
        assert summary["terminals_hit"] == ["mat", "milk"]
        for name in ("forest.json", "cluster.json", "network.json",
                     "resonance.json", "resonance.csv", "summary.json"):
            assert (tmp_path / name).exists()

    def test_summary_file_matches_return_value(self, tmp_path):
        summary = run_scenario(ExperimentConfig(scenario="fig4_trees",
                                                output_dir=str(tmp_path)))
        on_disk = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert on_disk == summary


class TestSweep:
    def test_single_sample_matches_direct_run(self, tmp_path):
        config = ExperimentConfig(seed=3, growth=ALL_FIRING_GROWTH,
                                  output_dir=str(tmp_path), sweep_inputs=[25])
        rows = sweep(config, 1)
        assert len(rows) == 1
        assert rows[0]["n_inputs"] == 25
        assert rows[0]["initial_excess"] == pytest.approx(0.8)
        assert rows[0]["ticks_to_balance"] > 0
        assert rows[0]["intermediaries"] >= 1

    def test_same_seed_identical_files(self, tmp_path):
        contents = []
        for name in ("one", "two"):
            config = ExperimentConfig(seed=9, growth=ALL_FIRING_GROWTH,
                                      output_dir=str(tmp_path / name))
            sweep(config, 4)
            contents.append((tmp_path / name / "sweep.csv").read_bytes())
        assert contents[0] == contents[1]

    def test_initial_excess_column(self, tmp_path):
        config = ExperimentConfig(seed=5, output_dir=str(tmp_path),
                                  sweep_inputs=[10, 50], max_ticks=30)
        rows = sweep(config, 2)
        assert [row["initial_excess"] for row in rows] == [0.5, 0.9]

    def test_non_convergent_sample_reports_minus_one(self, tmp_path):
        # Stock constants cannot bud under saturating drive; the row simply
        # records no balance.
        config = ExperimentConfig(seed=5, output_dir=str(tmp_path),
                                  sweep_inputs=[25], max_ticks=60)
        rows = sweep(config, 1)
        assert rows[0]["ticks_to_balance"] == -1

    def test_random_subset_schedule_is_reproducible(self, tmp_path):
        results = []
        for name in ("a", "b"):
            config = ExperimentConfig(seed=11, schedule_probability=0.8,
                                      growth=ALL_FIRING_GROWTH,
                                      output_dir=str(tmp_path / name),
                                      sweep_inputs=[10], max_ticks=120)
            results.append(sweep(config, 2))
        assert results[0] == results[1]

    def test_default_probability_drives_every_input_on_every_tick(self, tmp_path):
        config = ExperimentConfig(seed=3, growth=ALL_FIRING_GROWTH, output_dir=str(tmp_path),
                                  sweep_inputs=[10, 25], max_ticks=120)
        assert config.schedule_probability == 1.0
        # Every sample balances under these constants, so no row reads -1.
        for row in sweep(config, 4):
            net, inputs, _main = build_direct_unit(row["n_inputs"], row["threshold"])
            report = run_until_balanced(net, frozenset(inputs), config.growth, config.max_ticks)
            assert (row["initial_excess"], row["ticks_to_balance"], row["intermediaries"]) == (
                report.initial_max_excess, report.ticks_to_balance, report.intermediaries_created)

    def test_bad_output_dir_fails_before_the_first_sample(self, tmp_path, monkeypatch,
                                                          capsys):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return run_until_balanced(*args, **kwargs)

        monkeypatch.setattr(sweeps, "run_until_balanced", counted)
        (tmp_path / "file").write_text("", encoding="utf-8")
        config = ExperimentConfig(output_dir=str(tmp_path / "file" / "sub"))
        with pytest.raises(OSError):
            sweep(config, 2)
        config_path = tmp_path / "config.json"
        config_path.write_text(config_to_json(config), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path), "--samples", "2"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    @pytest.mark.parametrize("n_samples", [0, True, 2.5])
    def test_sample_count_validated(self, tmp_path, n_samples):
        config = ExperimentConfig(output_dir=str(tmp_path))
        with pytest.raises(InvalidParameterError):
            sweep(config, n_samples)


class TestCli:
    def test_config_print_defaults(self, capsys):
        # Pinned as literal text, not compared with config_to_json(), so
        # a changed default or field fails here and shows in the diff.
        assert main(["config", "--print-defaults"]) == 0
        assert capsys.readouterr().out == """\
{
  "seed": 0,
  "scenario": "fig2_growth",
  "growth": {
    "bud_threshold": 3.0,
    "window": 8,
    "cofire_agreement": 0.9,
    "offpattern_decay": 0.5,
    "eps_balance": 0.2,
    "force_per_segment": 0.1,
    "close_cutoff": 0.05
  },
  "schedule_probability": 1.0,
  "max_ticks": 500,
  "output_dir": "out",
  "sweep_inputs": [
    10,
    25,
    50
  ],
  "sweep_thresholds": [
    5.0
  ]
}
"""

    def test_config_without_flag_errors(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["config"])
        assert caught.value.code == 2
        assert "--print-defaults" in capsys.readouterr().err

    def test_trees_ingest_and_query(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("black cat sat mat\nblack cat drank milk\n"
                          "drank milk\ndrank milk\n", encoding="utf-8")
        forest_path = tmp_path / "forest.json"
        assert main(["trees", "ingest", "--corpus", str(corpus),
                     "--out", str(forest_path)]) == 0
        assert "2 trees" in capsys.readouterr().out
        assert main(["trees", "query", "--forest", str(forest_path),
                     "--terms", "black cat drank milk"]) == 0
        paths = json.loads(capsys.readouterr().out)
        assert paths[0]["complete"] is True
        assert paths[0]["links_crossed"] == 1

    def test_cluster_command(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("0\tc0,c1,c2\n1\tc1,c2,c3\n2\tc2,c3,c4\n",
                          encoding="utf-8")
        out = tmp_path / "net.json"
        assert main(["cluster", "--events", str(events),
                     "--out", str(out)]) == 0
        assert "3 hidden" in capsys.readouterr().out
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert len(doc["hidden_nodes"]) == 3

    def test_cluster_rejects_bad_times(self, tmp_path, capsys):
        events = tmp_path / "events.tsv"
        events.write_text("1\ta\n1\tb\n", encoding="utf-8")
        assert main(["cluster", "--events", str(events),
                     "--out", str(tmp_path / "net.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config = ExperimentConfig(scenario="fig4_trees",
                                  output_dir=str(tmp_path / "out"))
        config_path.write_text(config_to_json(config), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["trees"] == 2

    def test_run_with_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"scenario": "mystery"}', encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config = ExperimentConfig(seed=2, growth=ALL_FIRING_GROWTH,
                                  output_dir=str(tmp_path / "out"),
                                  sweep_inputs=[10])
        config_path.write_text(config_to_json(config), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path), "--samples", "2"]) == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_missing_config_path(self, capsys):
        assert main(["run", "--config", "/nowhere/config.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, command", [
        ("config.json", '{"sweep_inputs": []}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("forest.json", "{not json",
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("forest.json", '{"trees": [{"label": "a", "children": []}], "links": []}',
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("events.tsv", "1.0\ta,b\nnan\tb,c\n0.5\tc,d\n",
         ["cluster", "--events", "{path}", "--out", "{out}"]),
        ("corpus.txt", b"\xff\xfea b\n",
         ["trees", "ingest", "--corpus", "{path}", "--out", "{out}"]),
        ("events.tsv", b"\xff\xfe1.0\ta,b\n",
         ["cluster", "--events", "{path}", "--out", "{out}"]),
        ("config.json", b"\xff\xfe{}",
         ["run", "--config", "{path}"]),
        ("forest.json", b"\xff\xfe{}",
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("config.json", "[" * 5000, ["run", "--config", "{path}"]),
        ("forest.json", "[" * 5000,
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("forest.json", '{"trees": [{"label": "a", "count": 1, "children": []}], '
         '"links": [{"from_tree": -1, "from_path": [], "to_tree": 0, "label": "M"}]}',
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("corpus.txt", "".join(f"t{i} t{i + 1}\n" for i in range(1500)),
         ["trees", "ingest", "--corpus", "{path}", "--out", "{out}"]),
        ("corpus.txt", " ".join(f"w{i}" for i in range(3000)) + "\n",
         ["trees", "ingest", "--corpus", "{path}", "--out", "{out}"]),
        ("events.tsv", "1.0\ta,b\n",
         ["cluster", "--events", "{path}", "--decay", "nan", "--out", "{out}"]),
        ("events.tsv", "1.0\ta,b\n",
         ["cluster", "--events", "{path}", "--decay", "inf", "--out", "{out}"]),
        ("config.json", '{"seed": [1]}', ["run", "--config", "{path}"]),
        ("config.json", '{"growth": {"window": 8.5}}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("config.json", '{"growth": {"threshold_policy": 5}}',
         ["run", "--config", "{path}"]),
        ("config.json", '{"growth": {"threshold_policy": "all"}}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("config.json", '{"growth": null}', ["run", "--config", "{path}"]),
        ("config.json", '{"output_dir": 5}', ["run", "--config", "{path}"]),
        ("config.json", '{"growth": {"eps_balance": Infinity}}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("config.json", '{"schedule_probability": true}', ["run", "--config", "{path}"]),
        ("forest.json", '{"trees": [{"label": "a", "count": 1, "children": []}], '
         '"links": [{"from_tree": 0, "from_path": [], "to_tree": 0, "label": 5}]}',
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("forest.json", '{"trees": [{"label": "a", "count": 1, "children": []}], '
         '"links": [{"from_tree": 0, "from_path": [], "to_tree": 0, "label": "M"}]}',
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("forest.json", '{"trees": [{"label": "a", "count": 1, "children": []}, '
         '{"label": "b", "count": 1, "children": []}], "links": ['
         '{"from_tree": 0, "from_path": [], "to_tree": 1, "label": "M"}, '
         '{"from_tree": 0, "from_path": [], "to_tree": 1, "label": "M"}]}',
         ["trees", "query", "--forest", "{path}", "--terms", "a"]),
        ("config.json", '{"refined_specs": [{"input_count": true, "group_size": 1, '
         '"group_threshold": 1, "main_threshold": 1}]}', ["run", "--config", "{path}"]),
        ("config.json", '{"scenario": []}', ["run", "--config", "{path}"]),
        ("config.json", '{"output_dir": "a\\u0000b"}', ["run", "--config", "{path}"]),
        ("config.json", '{"output_dir": "a\\u0000b"}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("config.json", '{"output_dir": ""}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("config.json", '{"sweep_inputs": [1000000000]}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
        ("config.json", '{"sweep_inputs": [1000001]}', ["run", "--config", "{path}"]),
        ("config.json", '{"sweep_thresholds": [1e-10]}',
         ["sweep", "--config", "{path}", "--samples", "1"]),
    ])
    def test_malformed_input_exits_2(self, tmp_path, capsys, name, text, command):
        path = tmp_path / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        argv = [arg.format(path=path, out=tmp_path / "out.json") for arg in command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestDeterminismAcrossProcesses:
    @pytest.mark.parametrize("scenario", ["fig6_stack", "fig2_growth"])
    def test_run_bytes_do_not_depend_on_the_hash_seed(self, tmp_path, scenario):
        # Iteration orders that followed str hashes would differ between
        # interpreters started with different PYTHONHASHSEED values.
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            workdir = tmp_path / hash_seed
            workdir.mkdir()
            (workdir / "config.json").write_text(
                config_to_json(ExperimentConfig(scenario=scenario)), encoding="utf-8")
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "renforge.cli", "run", "--config", "config.json"],
                cwd=workdir, env=env, capture_output=True, timeout=60, check=False)
            assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
            files = {path.name: path.read_bytes() for path in (workdir / "out").iterdir()}
            assert files
            outputs.append((proc.stdout, files))
        assert outputs[0] == outputs[1]
