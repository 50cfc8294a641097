"""CLI tests (fast paths only; the heavy mg runs are covered by benches)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_mg_defaults():
    args = build_parser().parse_args(["mg"])
    assert args.command == "mg" and args.n == 64
    assert not args.hetero and not args.spacetime


def test_parser_compare_options():
    args = build_parser().parse_args(["compare", "--nprocs", "6"])
    assert args.nprocs == 6


def test_theorems_command_passes(capsys):
    assert main(["theorems"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "40/40" in out


def test_compare_command_prints_table(capsys):
    assert main(["compare", "--nprocs", "4", "--iterations", "10"]) == 0
    out = capsys.readouterr().out
    assert "snow" in out and "cocheck" in out and "forwarding" in out


def test_mg_small_run(capsys):
    assert main(["mg", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "Execution" in out and "migration:" in out


def test_mg_hetero_small_run(capsys):
    assert main(["mg", "--n", "16", "--hetero", "--spacetime"]) == 0
    out = capsys.readouterr().out
    assert "Coordinate" in out and "space-time" in out


def test_mg_save_trace(tmp_path, capsys):
    out_file = tmp_path / "run.trace"
    assert main(["mg", "--n", "16", "--hetero",
                 "--save-trace", str(out_file)]) == 0
    assert out_file.exists()
    from repro.analysis import load_trace
    tr = load_trace(out_file)
    assert tr.first("migration_start") is not None


def test_mg_svg_output(tmp_path, capsys):
    out_file = tmp_path / "diagram.svg"
    assert main(["mg", "--n", "16", "--hetero", "--svg",
                 str(out_file)]) == 0
    import xml.etree.ElementTree as ET
    svg = out_file.read_text()
    ET.fromstring(svg)
    # the one obs renderer draws the cut window's bars and flights
    assert 'class="phase-bar"' in svg and 'class="flight"' in svg


def test_parser_obs_run_defaults():
    args = build_parser().parse_args(["obs", "run"])
    assert args.command == "obs" and args.obs_command == "run"
    assert args.out == "obs_events.jsonl"
    assert args.sample_every == 0  # per-message events off by default
    assert not args.no_report


def test_parser_obs_report():
    args = build_parser().parse_args(
        ["obs", "report", "events.jsonl", "--from-trace"])
    assert args.obs_command == "report"
    assert args.artifact == "events.jsonl" and args.from_trace


def test_parser_obs_requires_subcommand():
    import pytest
    with pytest.raises(SystemExit):
        build_parser().parse_args(["obs"])


def test_obs_report_command(tmp_path, capsys):
    from repro.obs.events import encode_jsonl_line
    records = [
        {"ts": 1.0, "actor": "p1", "kind": "span_start", "phase": "drain",
         "rank": 1},
        {"ts": 1.2, "actor": "p1", "kind": "drain_peer", "peer": 0,
         "last": "eom", "rank": 1},
        {"ts": 1.3, "actor": "p1", "kind": "span_end", "phase": "drain",
         "rank": 1, "seconds": 0.3},
        {"ts": 1.4, "actor": "registry", "kind": "migration_window",
         "rank": 1, "seconds": 0.9},
    ]
    path = tmp_path / "events.jsonl"
    path.write_text("".join(encode_jsonl_line(r) + "\n" for r in records))
    assert main(["obs", "report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "drain" in out and "migration windows" in out
    assert "straggler: peer 0" in out


def test_obs_report_rejects_malformed_artifact(tmp_path):
    import pytest
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ts": 1.0, "actor": "p1", "kind": "warp_drive"}\n')
    with pytest.raises(ValueError, match="unknown event kind"):
        main(["obs", "report", str(path)])


def test_parser_directory_defaults():
    args = build_parser().parse_args(["directory"])
    assert args.command == "directory"
    assert args.nodes == 4
    assert args.replication == 2 and args.kill is None and not args.churn


def test_parser_directory_options():
    args = build_parser().parse_args(
        ["directory", "--nodes", "6", "--kill", "2", "--rounds", "10"])
    assert args.nodes == 6
    assert args.kill == 2 and args.rounds == 10


def test_parser_directory_rejects_unknown_backend():
    """One distributed backend, so no ``--backend`` flag to choose with."""
    for value in ("gossip", "chord", "sharded"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["directory", "--backend", value])


def test_directory_command_validates_arguments(capsys):
    # a bad kill target or shard count is refused up front
    assert main(["directory", "--nodes", "0"]) == 2
    assert "at least one node" in capsys.readouterr().out
    assert main(["directory", "--nodes", "3", "--kill", "7"]) == 2
    assert "not a shard id" in capsys.readouterr().out


def test_directory_command_runs_workload(capsys):
    """End-to-end: a 2-rank mp workload over real shard daemons, one
    migration, stats polled from the daemons themselves."""
    assert main(["directory", "--nodes", "2", "--rounds", "60"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "shard" in out and "publishes=" in out


def test_parser_recover_defaults():
    args = build_parser().parse_args(["recover"])
    assert args.command == "recover"
    assert args.count == 60 and args.checkpoint_every == 2
    assert args.rank == 1 and not args.kill_shard and args.dir is None


def test_parser_recover_options():
    args = build_parser().parse_args(
        ["recover", "--count", "80", "--checkpoint-every", "4",
         "--rank", "2", "--kill-shard", "--dir", "/tmp/x"])
    assert args.count == 80 and args.checkpoint_every == 4
    assert args.rank == 2 and args.kill_shard and args.dir == "/tmp/x"


def test_recover_command_validates_rank(capsys):
    assert main(["recover", "--rank", "5"]) == 2
    assert "not a relay rank" in capsys.readouterr().out


def test_parser_obs_svg_defaults():
    args = build_parser().parse_args(["obs", "svg", "events.jsonl"])
    assert args.obs_command == "svg" and args.artifact == "events.jsonl"
    assert args.out == "obs_spacetime.svg" and args.width == 900
    assert not args.no_align and not args.from_trace


def test_parser_obs_watch_defaults():
    args = build_parser().parse_args(["obs", "watch"])
    assert args.obs_command == "watch"
    assert args.rounds == 400 and args.payload_kib == 256
    assert args.interval == pytest.approx(0.1) and args.out is None


def test_obs_svg_command(tmp_path, capsys):
    from repro.obs.events import encode_jsonl_line
    records = [
        {"ts": 1.0, "actor": "p1", "kind": "span_start", "phase": "drain",
         "rank": 1, "trace_id": "mig-r1.m1-cafe0001"},
        {"ts": 1.3, "actor": "p1", "kind": "span_end", "phase": "drain",
         "rank": 1, "seconds": 0.3, "trace_id": "mig-r1.m1-cafe0001"},
        {"ts": 1.4, "actor": "registry", "kind": "migration_window",
         "rank": 1, "seconds": 0.9},
        {"ts": 1.5, "actor": "p1", "kind": "clock_offset",
         "peer": "registry", "offset": -0.2, "err": 0.001},
    ]
    artifact = tmp_path / "events.jsonl"
    artifact.write_text("".join(encode_jsonl_line(r) + "\n"
                                for r in records))
    out = tmp_path / "spacetime.svg"
    assert main(["obs", "svg", str(artifact), "--out", str(out)]) == 0
    assert "wrote space-time diagram" in capsys.readouterr().out
    import xml.etree.ElementTree as ET
    svg = out.read_text()
    ET.fromstring(svg)
    assert svg.count('class="migration-window"') == 1
    assert svg.count('class="phase-bar"') == 1


def test_obs_svg_from_sim_trace(tmp_path, capsys):
    trace_file = tmp_path / "run.trace"
    assert main(["mg", "--n", "16", "--hetero",
                 "--save-trace", str(trace_file)]) == 0
    out = tmp_path / "sim.svg"
    assert main(["obs", "svg", str(trace_file), "--from-trace",
                 "--out", str(out)]) == 0
    import xml.etree.ElementTree as ET
    svg = out.read_text()
    ET.fromstring(svg)
    assert svg.count('class="phase-bar"') >= 6  # one full migration
    assert 'class="flight"' in svg  # the lift keeps the sim's messages


def test_obs_report_from_sim_trace(tmp_path, capsys):
    trace_file = tmp_path / "run.trace"
    assert main(["mg", "--n", "16", "--hetero",
                 "--save-trace", str(trace_file)]) == 0
    capsys.readouterr()
    assert main(["obs", "report", str(trace_file), "--from-trace"]) == 0
    out = capsys.readouterr().out
    assert "migration phase breakdown" in out
    assert "restore" in out
