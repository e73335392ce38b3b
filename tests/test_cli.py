"""Command-line surface: option table, file formats, exit codes."""

import importlib.util
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from ratosc import coherent as co
from ratosc.cli import _COMMAND_TABLE, _OPTIONS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out


def test_invalid_arguments_exit_one(tmp_path, capsys):
    # a --mu off the ladders is refused before any work, naming the ladders
    for args in (["eigenstate"], ["coeffs"], ["mandel", "--z-abs", "0:1:2"],
                 ["overlap", "--z-abs", "0:1:2"], ["uncertainty"]):
        code, out = run_cli(args + ["--m", "4", "--mu", "5"], tmp_path, f"{args[0]}.csv")
        assert code == 1 and not out.exists(), args
        assert capsys.readouterr().err == (
            "error: mu = 5 is not a lowest weight for m = 4; choose one of [-5, 1, 2, 3, 4]\n")
    assert main(["mandel", "--m", "3", "--mu", "1", "--z-abs", "0:1:2"]) == 1
    assert main(["mandel", "--m", "4", "--mu", "-5"]) == 1          # missing grid
    assert main(["mandel", "--m", "4", "--mu", "-5", "--z-abs", "5:1:3"]) == 1
    assert main(["cat", "--m", "4", "--mu", "-5", "--z-im", "1.0"]) == 1
    assert main(["nosuchcommand"]) == 1
    capsys.readouterr()


def test_parser_adds_options_to_the_named_command_only(capsys):
    from ratosc.cli import _COMMAND_TABLE, _build_parser

    def option_counts(parser):
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return {name: len(p._actions) - 1 for name, p in sub.choices.items()}  # less -h

    assert option_counts(_build_parser()) == {
        **{name: len(command.reads) + 3 for name, command in _COMMAND_TABLE.items()},
        "selftest": 0}
    named = option_counts(_build_parser(["mandel", "--m", "4", "--z-abs", "0:1:2"]))
    assert named.pop("mandel") == len(_COMMAND_TABLE["mandel"].reads) + 3
    assert set(named.values()) == {0} and len(named) == len(_COMMAND_TABLE)
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    listed = capsys.readouterr().out
    assert all(name in listed for name in (*_COMMAND_TABLE, "selftest"))
    assert main(["nosuchcommand", "--m", "4"]) == 1
    capsys.readouterr()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_energy_csv_matches_closed_form(tmp_path, capsys):
    code, path = run_cli(
        ["energy", "--variant", "linearized", "--m", "4", "--mu", "-5",
         "--z-abs", "0:15:16"], tmp_path, "energy.csv")
    assert code == 0
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("command = energy" in l for l in header)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "abs_z,energy_closed_form,energy_direct"
    for row in data[1:]:
        az, closed, direct = (float(v) for v in row.split(","))
        assert closed == pytest.approx(5.0 * az * az, abs=1e-9)
        assert direct == pytest.approx(closed, abs=1e-8)
    capsys.readouterr()


def test_output_is_deterministic(tmp_path, capsys):
    args = ["mandel", "--m", "4", "--mu", "-5", "--z-abs", "1:1000:5"]
    _, first = run_cli(args, tmp_path, "a.csv")
    _, second = run_cli(args, tmp_path, "b.csv")
    text_a = first.read_text().replace(str(first), "")
    text_b = second.read_text().replace(str(second), "")
    # identical apart from the output-path line recorded in the header
    keep_a = [l for l in text_a.splitlines() if not l.startswith("# output")]
    keep_b = [l for l in text_b.splitlines() if not l.startswith("# output")]
    assert keep_a == keep_b
    capsys.readouterr()


def test_json_structure(tmp_path, capsys):
    code, path = run_cli(
        ["overlap", "--m", "6", "--mu", "-7", "--z-abs", "0:100:5",
         "--format", "json"], tmp_path, "overlap.json")
    assert code == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"config", "meta", "columns", "data"}
    assert payload["columns"] == ["abs_z", "overlap"]
    assert payload["data"][0] == [0.0, 1.0]
    assert len(payload["data"]) == 5
    capsys.readouterr()


def test_spectrum_and_eigenstate(tmp_path, capsys):
    code, path = run_cli(["spectrum", "--m", "2", "--k", "3"], tmp_path, "spec.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    energies = [float(r.split(",")[3]) for r in rows]
    assert energies == sorted(energies)
    assert energies[0] == 0.0

    code, path = run_cli(
        ["eigenstate", "--m", "4", "--mu", "-5", "--k", "1",
         "--x-grid=-6:6:121"], tmp_path, "eig.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    psi = np.array([[float(v) for v in r.split(",")] for r in rows])
    norm = np.trapezoid(psi[:, 1] ** 2, psi[:, 0])
    assert norm == pytest.approx(1.0, abs=1e-6)
    capsys.readouterr()


def test_density_and_cat_normalisation(tmp_path, capsys):
    code, path = run_cli(
        ["density", "--m", "4", "--mu", "-5", "--z-re", "1000",
         "--times", "0,0.2"], tmp_path, "density.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    for col in (1, 2):
        assert np.trapezoid(data[:, col], data[:, 0]) == pytest.approx(1.0, abs=1e-7)

    code, path = run_cli(
        ["cat", "--m", "4", "--mu", "-5", "--z-re", "50", "--parity", "odd"],
        tmp_path, "cat.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-7)
    capsys.readouterr()


def test_wigner_rows_are_row_major(tmp_path, capsys):
    code, path = run_cli(
        ["wigner", "--m", "2", "--mu", "-3", "--z-re", "2",
         "--x-grid=-5:5:11", "--p-grid=-5:5:7"], tmp_path, "w.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    first = [float(v) for v in rows[0].split(",")]
    second = [float(v) for v in rows[1].split(",")]
    assert first[0] == second[0] == -5.0       # x outer index constant
    assert first[1] < second[1]                # p inner index advances
    assert len(rows) == 11 * 7
    header = dict(l[2:].split(" = ") for l in path.read_text().splitlines()
                  if l.startswith("# ") and " = " in l)
    assert 0.0 < float(header["step"]) <= 1.0
    assert int(header["lattice_points"]) > 0
    assert float(header["change"]) <= 1e-12 and "residue" not in header
    capsys.readouterr()


def test_uncertainty_and_beamsplitter_and_entropy(tmp_path, capsys):
    code, path = run_cli(
        ["uncertainty", "--variant", "linearized", "--m", "4", "--mu", "-5",
         "--z-re-grid=-1:1:3", "--z-im-grid=-1:1:3"], tmp_path, "u.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    products = [float(r.split(",")[4]) for r in rows]
    assert all(h >= 0.5 - 1e-9 for h in products)

    code, path = run_cli(
        ["beamsplitter", "--m", "4", "--mu", "-5", "--z-re", "1000"],
        tmp_path, "bs.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    total = sum(float(r.split(",")[2]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)

    code, path = run_cli(
        ["entropy", "--m", "4", "--mu", "-5", "--z-abs", "0:1000:3"],
        tmp_path, "s.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    values = [float(r.split(",")[1]) for r in rows]
    assert values[0] == 0.0
    assert values[-1] > 0.05
    capsys.readouterr()


def test_coeffs_and_potential_commands(tmp_path, capsys):
    code, path = run_cli(
        ["coeffs", "--m", "6", "--mu", "-7", "--z-re", "1e8"], tmp_path, "c.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    weights = [float(r.split(",")[3]) for r in rows]
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)

    code, path = run_cli(["potential", "--m", "2", "--x-grid=-4:4:9"],
                         tmp_path, "v.csv")
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
    mid = rows[4].split(",")
    assert float(mid[0]) == 0.0
    assert float(mid[1]) == pytest.approx(-10.0)
    assert float(mid[2]) == pytest.approx(-5.0)
    capsys.readouterr()


def test_density_builds_coefficients_once(tmp_path, monkeypatch, capsys):
    calls = []
    build = co.coefficients

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(co, "coefficients", counted)
    co.density_profile(co.CoherentSpec("nonlinear", 6, -7, 2.0), [0.0, 0.1])
    assert len(calls) == 1
    calls.clear()
    code, _ = run_cli(["density", "--m", "6", "--mu", "-7", "--z-re", "2", "--times", "0,0.1"],
                      tmp_path, "density.csv")
    assert code == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_cat_builds_coefficients_once(tmp_path, monkeypatch, capsys):
    calls = []
    build = co.coefficients

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(co, "coefficients", counted)
    code, _ = run_cli(["cat", "--m", "6", "--mu", "-7", "--z-re", "2", "--parity", "odd"],
                      tmp_path, "cat.csv")
    assert code == 0
    assert len(calls) == 1
    capsys.readouterr()


def _readme_commands() -> list[list[str]]:
    """The argument lists of the ```sh block under "## Command line" in
    README.md, one per `ratosc ...` line."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ratosc ")]


def test_readme_commands_exit_zero(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) >= 14
    for i, args in enumerate(commands):
        if args[0] != "selftest":  # selftest writes no file and takes no options
            args = args + ["--output", str(tmp_path / f"{i}-{args[0]}.csv")]
        assert main(args) == 0, args
    capsys.readouterr()


def _readme_option_table() -> dict[str, tuple[list, dict]]:
    """command -> (flags, {flag: default}) from the README table "options it
    reads": a "(default `v`)" sets the flag before it, a "(defaults `v`)"
    the two flags before it."""
    table = README.read_text().split("| command | options it reads |\n|---|---|\n", 1)[1]
    out = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        _, commands, options, _ = line.split("|")
        flags, defaults = [], {}
        for flag, kind, value in re.findall(r"`(--[a-z-]+)`(?: \((defaults?) `([^`]+)`\))?",
                                            options):
            flags.append(flag)
            if kind:
                defaults.update(dict.fromkeys(flags[-2 if kind == "defaults" else -1:], value))
        out.update((name, (flags, defaults)) for name in re.findall(r"`([a-z]+)`", commands))
    return out


def test_readme_option_table_matches_the_command_table():
    table = _readme_option_table()
    assert sorted(table) == sorted(_COMMAND_TABLE)
    flag = {dest: entry[0] for dest, entry in _OPTIONS.items()}
    for name, command in _COMMAND_TABLE.items():
        flags, defaults = table[name]
        assert flags == [flag[dest] for dest in command.reads], name
        assert defaults == {flag[dest]: text for dest, text in command.defaults.items()}, name


def _readme_header_table() -> dict[str, list[str]]:
    """command -> the keys of the README table "header records beyond its options"."""
    table = README.read_text().split("| command | header records beyond its options |\n|---|---|\n",
                                     1)[1]
    out = {}
    for line in table.split("\n\n", 1)[0].splitlines():
        _, commands, keys, _ = line.split("|")
        out.update((name, re.findall(r"`([A-Za-z_]+)`", keys))
                   for name in re.findall(r"`([a-z]+)`", commands))
    return out


_CHEAP_ARGS = {
    "spectrum": [],
    "potential": ["--x-grid=-1:1:3"],
    "eigenstate": ["--x-grid=-1:1:3"],
    "coeffs": ["--z-re", "1"],
    "energy": ["--z-abs", "0:1:2"],
    "density": ["--z-re", "1", "--x-grid=-1:1:3"],
    "cat": ["--z-re", "1", "--x-grid=-1:1:3"],
    "overlap": ["--z-abs", "0:1:2"],
    "wigner": ["--z-re", "1", "--x-grid=-1:1:3", "--p-grid=-1:1:3"],
    "uncertainty": ["--z-re-grid=0:0:1", "--z-im-grid=0:0:1"],
    "mandel": ["--z-abs", "0:1:2"],
    "beamsplitter": ["--z-re", "1"],
    "entropy": ["--z-abs", "0:1:2"],
}


def test_readme_header_table_matches_each_command_header(tmp_path, capsys):
    # the header lists the settings the command reads, in the order of
    # _OPTIONS, then what it records
    table = _readme_header_table()
    assert sorted(table) == sorted(_COMMAND_TABLE) == sorted(_CHEAP_ARGS)
    for name, command in _COMMAND_TABLE.items():
        code, path = run_cli([name, *_CHEAP_ARGS[name]], tmp_path, f"{name}.csv")
        assert code == 0, name
        keys = [line[2:].split(" = ", 1)[0] for line in path.read_text().splitlines()
                if line.startswith("# ") and " = " in line]
        shown = (*command.reads, "output", "fmt", "plot")
        assert keys == ["command", *(key for key in _OPTIONS if key in shown), *table[name]], name
        # no key twice, so a reader that builds a dict from the header loses
        # nothing: the times used and a cat's parity are settings lines
        assert len(keys) == len(set(keys)), name
        if "times" in command.reads:
            assert "# times = [0.0]" in path.read_text().splitlines(), name
    capsys.readouterr()


def test_seventeen_digit_round_trip(tmp_path, capsys):
    code, path = run_cli(
        ["overlap", "--m", "6", "--mu", "-7", "--z-abs", "10:10:1"],
        tmp_path, "d.csv")
    assert code == 0
    from ratosc.coherent import overlap
    row = [l for l in path.read_text().splitlines() if not l.startswith("#")][1]
    assert float(row.split(",")[1]) == overlap(6, -7, 10.0)
    capsys.readouterr()


def _csv_data(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def test_cat_csv_matches_per_time_loop(tmp_path, capsys):
    from ratosc.coherent import CoherentSpec, cat_coefficients
    from ratosc.system import wavefunction_rows

    times = [0.0, 0.05, 0.224]
    for args, m, mu, z, parity in ((["--z-re", "1e8", "--parity", "odd"], 6, -7, 1e8, "odd"),
                                   (["--z-re", "3", "--x-grid=-6:6:201"], 4, -5, 3.0, "even")):
        code, out = run_cli(["cat", "--m", str(m), "--mu", str(mu), "--times",
                             ",".join(map(str, times))] + args, tmp_path, "cat.csv")
        assert code == 0
        data = _csv_data(out)
        spec = CoherentSpec("nonlinear", m, mu, z)
        cat = cat_coefficients(spec, parity)
        x = data[:, 0]  # 17 significant digits round-trip exactly
        psi = wavefunction_rows(m, mu, range(len(cat.entries)), x)
        ks = np.arange(len(cat.entries))
        for i, t in enumerate(times):
            ref = np.abs((cat.entries * np.exp(-1j * (2 * m + 2) * t * ks)) @ psi) ** 2
            assert np.max(np.abs(data[:, i + 1] - ref)) <= 1e-14 * np.max(ref)
    capsys.readouterr()


def test_huge_times_give_the_reduced_time_density(tmp_path, capsys):
    # the state repeats with period pi/(m+1); times are reduced modulo it
    base = ["density", "--m", "2", "--mu=-3", "--z-re=3"]
    code, huge = run_cli(base + ["--times", "1e308"], tmp_path, "huge.csv")
    assert code == 0
    code, reduced = run_cli(base + ["--times", repr(math.fmod(1e308, math.pi / 3))],
                            tmp_path, "reduced.csv")
    assert code == 0
    got, want = _csv_data(huge), _csv_data(reduced)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12
    capsys.readouterr()


def test_unbuildable_momentum_window_exits_one(tmp_path, capsys):
    code, _ = run_cli(["wigner", "--m", "2", "--mu=-3", "--z-re=1", "--x-grid=-1:1:3",
                       "--p-grid=-1e6:1e6:3"], tmp_path, "w.csv")
    assert code == 1
    assert "momentum window" in capsys.readouterr().err


def test_edge_arguments_exit_cleanly(tmp_path, capsys):
    """Seeded sweep over edge values: every run ends with exit code 0, 1 or 2
    and a one-line diagnostic, never an exception, and a non-finite number
    or an unwritable output path is a usage error."""
    base = {
        "coeffs": ["--m", "4", "--mu", "-5", "--z-re", "2"],
        "density": ["--m", "4", "--mu", "-5", "--z-re", "2", "--times", "0,0.1",
                    "--x-grid=-4:4:9"],
        "wigner": ["--m", "2", "--mu", "-3", "--z-re", "1", "--x-grid=-4:4:5",
                   "--p-grid=-4:4:5"],
        "uncertainty": ["--m", "4", "--mu", "-5", "--z-re-grid=0:1:2", "--z-im-grid=0:0:1"],
        "energy": ["--m", "4", "--mu", "-5", "--z-abs", "0:2:3"],
        "spectrum": ["--m", "4", "--k", "2"],
    }
    scalars = ["nan", "inf", "-inf", "-1", "0", "1e-300", "x"]
    grids = ["nan:1:3", "-inf:1:3", "0:inf:3", "1:1:3", "2:1:3", "0:1:1", "0:1:0"]
    options = {"--times": scalars, "--tail-tol": scalars, "--quad-tol": scalars, "--k": scalars,
               "--z-re": scalars, "--x-grid": grids, "--p-grid": grids, "--z-abs": grids,
               "--z-re-grid": grids, "--z-im-grid": grids,
               "--output": [str(tmp_path / "missing" / "out.csv"), str(tmp_path)]}
    rng = np.random.default_rng(20261018)
    for _ in range(40):
        command = str(rng.choice(sorted(base)))
        option = str(rng.choice(sorted(options)))
        value = str(rng.choice(options[option]))
        args = [command] + base[command] + [f"{option}={value}"]
        if option != "--output":
            args += ["--output", str(tmp_path / "out.csv")]
        code = main(args)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), args
        assert "Traceback" not in err and err.count("\n") <= 1, args
        if option == "--output" or any(bad in value for bad in ("nan", "inf")):
            assert code == 1, args
        if option == "--k" and value.startswith("-"):
            assert code == 1, args
    # every --k value of spectrum: only a nonnegative integer is a depth
    for value in scalars:
        args = ["spectrum", "--m", "4", f"--k={value}", "--output", str(tmp_path / "out.csv")]
        code = main(args)
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") <= 1, args
        assert code == (0 if value == "0" else 1), args
    # a linearized closed form past the double range is a numerical failure
    args = ["energy", "--variant", "linearized", "--m", "4", "--mu=-5", "--z-abs=0:1e160:2",
            "--output", str(tmp_path / "out.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    # so is a potential grid whose x^2 overflows
    args = ["potential", "--m", "4", "--x-grid=-1e200:1e200:3", "--output", str(tmp_path / "out.csv")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    # a Wigner window whose two rows lie ~1.6e308 apart, both off the
    # support, answers with zeros
    args = ["wigner"] + base["wigner"][:6] + ["--x-grid=-8e307:8e307:2", "--p-grid=-3:3:9",
                                            "--output", str(tmp_path / "out.csv")]
    assert main(args) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [l for l in (tmp_path / "out.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 2 * 9 and all(float(r.split(",")[-1]) == 0.0 for r in rows[1:])


# The options each command reads besides --output, --format and --plot,
# with values that make a small run.
_STATE = {"--variant": "linearized", "--m": "2", "--mu": "-3"}
_SWEEP = {**_STATE, "--z-abs": "0:1:2", "--tail-tol": "1e-12"}
_POINT = {**_STATE, "--z-re": "1", "--z-im": "0.5", "--tail-tol": "1e-12"}
READS = {
    "spectrum": {"--m": "2", "--k": "1"},
    "potential": {"--m": "2", "--x-grid": "-1:1:3"},
    "eigenstate": {"--m": "2", "--mu": "-3", "--k": "1", "--x-grid": "-1:1:3"},
    "coeffs": _POINT,
    "beamsplitter": _POINT,
    "energy": _SWEEP,
    "mandel": _SWEEP,
    "entropy": _SWEEP,
    "density": {**_POINT, "--times": "0,0.1", "--x-grid": "-1:1:3"},
    "cat": {**_STATE, "--z-re": "1", "--parity": "odd", "--times": "0,0.1",
            "--x-grid": "-1:1:3", "--tail-tol": "1e-12"},
    "overlap": {"--m": "2", "--mu": "-3", "--z-abs": "0:1:2"},
    "wigner": {**_POINT, "--x-grid": "-1:1:3", "--p-grid": "-1:1:3"},
    "uncertainty": {**_STATE, "--z-re-grid": "0:1:2", "--z-im-grid": "0:0:1", "--times": "0.1",
                    "--tail-tol": "1e-12"},
}
# every option each command accepted before each took only what it reads,
# and --quad-tol, which no command takes any more
ALL_OPTIONS = {**_SWEEP, **_POINT, "--times": "0", "--x-grid": "-1:1:3", "--p-grid": "-1:1:3",
               "--k": "1", "--parity": "odd", "--quad-tol": "1e-9"}


def _field(flag):
    return {"--z-abs": "z_abs_grid", "--format": "fmt"}.get(flag, flag[2:].replace("-", "_"))


def test_each_command_takes_only_the_options_it_reads(tmp_path, capsys):
    fields = {"command", *_OPTIONS}
    for command, reads in READS.items():
        args = [command] + [f"{flag}={value}" for flag, value in reads.items()]
        expected = {"command", *map(_field, reads), "output", "fmt", "plot"}
        code, out = run_cli(args, tmp_path, f"{command}.csv")
        assert code == 0, args
        keys = {line[2:].split(" = ")[0] for line in out.read_text().splitlines()
                if line.startswith("# ") and " = " in line}
        assert keys & fields == expected, command
        code, out = run_cli(args + ["--format", "json"], tmp_path, f"{command}.json")
        assert code == 0, args
        assert set(json.loads(out.read_text())["config"]) == expected, command
        for flag, value in ALL_OPTIONS.items():
            if flag in reads:
                continue
            code, out = run_cli(args + [f"{flag}={value}"], tmp_path, f"{command}-{flag}.csv")
            err = capsys.readouterr().err
            assert code == 1, (command, flag)
            assert err.count("\n") == 1 and "unrecognized arguments" in err, (command, flag)
            assert not out.exists(), (command, flag)
    capsys.readouterr()


@pytest.mark.skipif(importlib.util.find_spec("matplotlib") is not None,
                    reason="matplotlib imports here")
def test_plot_without_matplotlib_refuses_before_any_work(tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(_COMMAND_TABLE, "spectrum", _COMMAND_TABLE["spectrum"]._replace(
        handler=lambda config: ran.append(config)))
    code, out = run_cli(["spectrum", "--m", "2", "--k", "1", "--plot"], tmp_path, "s.csv")
    assert code == 1 and not out.exists() and not ran
    assert capsys.readouterr().err == (
        "error: --plot requires matplotlib (install the 'plot' extra)\n")


def test_abbreviated_options_are_refused(tmp_path, capsys):
    code, out = run_cli(["uncertainty", "--z-re", "3"], tmp_path, "u.csv")
    assert code == 1 and not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out = run_cli(["coeffs", "--z-re", "1", "--tail", "1e-12"], tmp_path, "c.csv")
    assert code == 1 and not out.exists()
    assert "unrecognized arguments" in capsys.readouterr().err


def test_uncertainty_takes_one_time(tmp_path, capsys):
    base = ["uncertainty", "--z-re-grid=0:1:2", "--z-im-grid=0:0:1"]
    code, out = run_cli(base + ["--times", "0,0.3"], tmp_path, "two.csv")
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.count("\n") == 1
    code, out = run_cli(base + ["--times", "0.3"], tmp_path, "one.csv")
    assert code == 0
    assert "# times = [0.3]" in out.read_text().splitlines()
    capsys.readouterr()


def _csv_columns(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return np.array([[float(v) for v in l.split(",")] for l in lines[1:]]).T


def test_a_negative_abs_z_minimum_is_a_usage_error(tmp_path, capsys):
    for command in ("energy", "mandel", "overlap", "entropy"):
        code, out = run_cli([command, "--m", "4", "--mu=-5", "--z-abs=-3:3:7"],
                            tmp_path, f"{command}.csv")
        assert code == 1 and not out.exists(), command
        assert "|z| must be >= 0" in capsys.readouterr().err
    code, _ = run_cli(["overlap", "--m", "4", "--mu=-5", "--z-abs=0:3:7"], tmp_path, "ok.csv")
    assert code == 0
    capsys.readouterr()


def test_symmetric_x_grids_keep_parity_to_the_bit(tmp_path, capsys):
    # a --x-grid window with min = -max is mirror-symmetric to the bit (a
    # linspace is not), so the basis kernel folds it, and the eigenstate
    # rows obey psi^(d)(-x) = (-1)^(nu+1+d) psi^(d)(x) exactly
    grid = "--x-grid=-8:8:401"
    for m, mu, k in ((4, -5, 0), (4, -5, 2), (2, 1, 3)):
        code, path = run_cli(["eigenstate", "--m", str(m), f"--mu={mu}", "--k", str(k), grid],
                             tmp_path, "eigenstate.csv")
        assert code == 0
        x, *rows = _csv_columns(path)
        assert np.array_equal(x, -x[::-1])
        nu = mu + (m + 1) * k
        for d, row in enumerate(rows):
            assert np.array_equal(row[::-1], (-1.0) ** (nu + 1 + d) * row), (m, mu, k, d)
    code, path = run_cli(["potential", "--m", "4", grid], tmp_path, "potential.csv")
    x, v, vh = _csv_columns(path)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(v, v[::-1])
    for args in (["density", "--z-re", "3"], ["cat", "--z-re", "3"]):
        code, path = run_cli(args + ["--m", "4", "--mu=-5", grid], tmp_path, "rho.csv")
        x = _csv_columns(path)[0]
        assert code == 0 and np.array_equal(x, -x[::-1]), args
        assert np.max(np.abs(x - np.linspace(-8.0, 8.0, 401))) <= 8.9e-16
    capsys.readouterr()
