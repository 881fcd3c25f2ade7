"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "tmt_sym"])
        assert args.solver == "pcg"
        assert args.precond == "ic0"
        assert args.color is True

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "tmt_sym"])
        assert args.pe == "azul"
        assert args.rows == 8

    def test_run_jobs_flag(self):
        args = build_parser().parse_args(["run", "fig27", "--jobs", "4"])
        assert args.ids == ["fig27"]
        assert args.jobs == 4

    def test_run_shares_runner_options(self):
        """``repro run`` exposes exactly the runner's own options."""
        import argparse

        from repro.experiments import runner

        def option_strings(parser):
            return sorted(
                option for action in parser._actions
                for option in action.option_strings
            )

        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        standalone = runner.add_arguments(argparse.ArgumentParser())
        assert option_strings(subcommands.choices["run"]) \
            == option_strings(standalone)
        assert "--jobs" in option_strings(standalone)

    def test_experiment_jobs_flag(self):
        args = build_parser().parse_args(
            ["experiment", "fig27", "--jobs", "2"]
        )
        assert args.jobs == 2


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "thermal2" in out
        assert "crankseg_1" in out

    def test_solve_suite_matrix(self, capsys):
        code = main([
            "solve", "tmt_sym", "--precond", "jacobi", "--tol", "1e-8",
        ])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_solve_mtx_file(self, tmp_path, capsys):
        from repro.sparse import write_matrix_market
        from repro.sparse.generators import random_spd

        path = tmp_path / "system.mtx"
        write_matrix_market(path, random_spd(40, seed=1), symmetric=True)
        assert main(["solve", str(path)]) == 0

    def test_solve_unknown_matrix(self):
        with pytest.raises(SystemExit):
            main(["solve", "not_a_matrix"])

    def test_solve_nonconvergent_exit_code(self, capsys):
        code = main([
            "solve", "tmt_sym", "--precond", "none", "--max-iters", "1",
        ])
        assert code == 1

    def test_map_block(self, capsys):
        code = main([
            "map", "tmt_sym", "--mapper", "block",
            "--rows", "4", "--cols", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "link activations" in out

    def test_simulate_block(self, capsys):
        code = main([
            "simulate", "tmt_sym", "--mapper", "block",
            "--rows", "4", "--cols", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GFLOP/s" in out
        assert "end-to-end" in out

    def test_experiment_dispatch(self, capsys):
        assert main(["experiment", "tab2"]) == 0
        assert "SpTRSV" in capsys.readouterr().out

    def test_run_list(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig20" in out
        assert "abl_trees" in out
