"""The package root exports the entry points and nothing else; the settable surface is pinned."""

import argparse
import ast
import dataclasses
from pathlib import Path

import pytest

import nearcomm
from nearcomm.cli import build_parser, main

PUBLIC = {
    # what the acceptance suite imports
    "ExperimentConfig",
    "choose_truncation",
    "commutator",
    "direct_log",
    "evaluate_smoothed_sawtooth",
    "gapped_log",
    "gen_almost_commuting_pair",
    "gen_gapped_unitary",
    "gen_voiculescu_pair",
    "haar_unitary",
    "laurent_coefficients",
    "near_commuting_unitaries",
    "nearest_commuting_pair",
    "operator_norm",
    "run_sweep",
    "stream_rng",
    "summarize",
    # the error types
    "BranchPointError",
    "GapTooSmallError",
    "InvalidInputError",
    "NumericalError",
    "PreconditionError",
    # the pipeline's options and result
    "PipelineOptions",
    "PipelineResult",
}


def test_all_is_the_public_api_and_resolves():
    assert set(nearcomm.__all__) == PUBLIC and len(nearcomm.__all__) == 24
    for name in nearcomm.__all__:
        assert getattr(nearcomm, name) is not None


def test_settable_values_are_pinned():
    # the tolerances, the series target and the sweep budget are module
    # constants, not options; a sweep's CSV path is write_records' argument
    def names(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert names(nearcomm.PipelineOptions) == ("min_gap",)
    assert names(nearcomm.ExperimentConfig) == (
        "n", "delta", "epsilons", "trials", "seed")


def subcommand_options(parser, prefix=()):
    """{subcommand path: its positionals' names and its flags}, generate's kinds included."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(subcommand_options(sub, prefix + (name,)))
    if prefix:
        out[" ".join(prefix)] = [
            action.option_strings[0] if action.option_strings else action.dest
            for action in parser._actions
            if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
        ]
    return out


def test_cli_options_are_pinned():
    assert subcommand_options(build_parser()) == {
        "gap": ["matrix"],
        "log": ["matrix", "--target", "--out"],
        "pair": ["u", "v", "--min-gap", "--out-x", "--out-y"],
        "sweep": ["--n", "--delta", "--eps-start", "--eps-end", "--points", "--trials",
                  "--seed", "--out"],
        "generate": [],
        "generate gapped": ["--n", "--delta", "--seed", "--out"],
        "generate pair": ["--n", "--delta", "--eps", "--seed", "--out-u", "--out-v"],
        "generate voiculescu": ["--n", "--out-u", "--out-v"],
    }


@pytest.mark.parametrize("argv", [
    ["pair", "u.mtxc", "v.mtxc"],
    ["sweep", "--n", "4", "--delta", "1.0", "--eps-start", "0.01", "--eps-end", "0.001",
     "--points", "2", "--trials", "1", "--seed", "1", "--out", "sweep.csv"],
])
def test_series_target_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # an old script that still passes --target fails before it reads or writes a file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--target", "1e-6"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nearcomm ") and "unrecognized arguments: --target 1e-6" in err
    assert list(tmp_path.iterdir()) == []


# imported only so that the benchmark's tracer finds them under these names
TRACER_BINDINGS = {
    ("cli", "certified_truncation"),
    ("cli", "gapped_log"),
    ("pipeline", "gapped_log"),
    ("pipeline", "herm_exp"),
}


def unread_imports(path: Path) -> set[str]:
    """The names a module binds by import and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read_but_the_tracer_bindings():
    modules = sorted(Path(nearcomm.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    unread = {(path.stem, name) for path in modules if path.name != "__init__.py"
              for name in unread_imports(path)}
    assert unread == TRACER_BINDINGS


def test_certified_matrices_are_trusted_by_one_rule():
    # the one trust decision is _CertifiedMatrix.of's isinstance(m, cls);
    # no other site tests for a certified class by hand
    sites = set()
    for path in sorted(Path(nearcomm.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                sites |= {(path.stem, c.id) for c in ast.walk(node.args[1])
                          if isinstance(c, ast.Name)
                          and c.id in {"cls", "HermitianMatrix", "UnitaryMatrix"}}
    assert sites == {("linalg", "cls")}
