"""CLI harness: exit codes, CSV schemas, determinism, config handling."""
import gc
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypflow.cli
from hypflow import flows, gaussian_atoms, hausdorff_young, quadrature, selftest
from hypflow.errors import AccuracyError
from hypflow.hermite import HermiteSeries
from hypflow.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, RunConfig, main, run_command
from hypflow.reporting import FlowReport, write_flow_csv


def run(args, tmp_path, sub="out"):
    out = tmp_path / sub
    code = main(args + ["--out", str(out)])
    return code, out


def test_discrete_flow_spec_example(tmp_path):
    code, out = run(
        ["discrete-flow", "--n", "6", "--p", "2", "--q", "4", "--z-re", "0.5", "--coeffs", "0,1,1"],
        tmp_path,
    )
    assert code == EXIT_OK
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,delta_to_prev"
    assert len([l for l in lines[1:] if l and not l.startswith("#")]) == 7
    assert lines[-1].startswith("# ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "nondecreasing"
    assert manifest["command"] == "discrete-flow"
    assert "wall_time_s" in manifest and "version" in manifest


def test_discrete_flow_manifest_reports_the_tail_cut(tmp_path):
    args = ["discrete-flow", "--n", "600", "--p", "1.5", "--q", "3.5", "--z-re", "0.3", "--z-im", "-0.2"]
    args += ["--coeffs", "0.5,1-1j,0.25j,0.75", "--ks", "0,150,300,451,600"]
    code, out1 = run(args, tmp_path, "a")
    assert code == EXIT_OK
    _, out2 = run(args, tmp_path, "b")
    assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()
    lines = (out1 / "flow.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,delta_to_prev" and len(lines) == 7
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert 0.0 < manifest["tail_bound"] <= 1e-15
    assert 0.0 < manifest["cells_kept_share"] < 1.0


_FRESH_PROBE = """
import json, sys
from hypflow.cli import main

out = sys.argv[1]
calls = {
    "two-point-scan": ["--p", "2", "--q", "4", "--resolution", "0.5"],
    "discrete-flow": ["--n", "12", "--p", "2", "--q", "4", "--z-re", "0.5", "--coeffs", "0,1,1"],
    "converge": ["--p", "1.5", "--q", "3", "--z-re", "0.5", "--coeffs", "0,1,0,1", "--n-list", "16,64"],
    "janson-flow": ["--p", "1.5", "--coeffs", "1,1j", "--s-points", "3"],
    "hy-flow --gaussian": ["--p", "1.5", "--gaussian", "--s-points", "3"],
    "hy-flow --hermite-coeffs": ["--p", "1.5", "--hermite-coeffs", "1,0.5", "--s-points", "3"],
    "hy-exp": ["--p", "1.5", "--atoms", "1:0.5,-0.3:-1.1", "--s-points", "3"],
}
seen = {}
for i, (name, args) in enumerate(calls.items()):
    seen[name] = main([name.split()[0], *args, "--out", f"{out}/{i}"])
    if i == 0:
        seen["loaded by two-point-scan"] = sorted(sys.modules)
seen["scipy"] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
seen["hypflow.selftest"] = "hypflow.selftest" in sys.modules
print(json.dumps(seen))
"""


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this hypflow."""
    src = str(Path(hypflow.cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory) -> dict:
    # one fresh interpreter runs every command that computes, so nothing imported
    # by other tests can hide an import, and a lazy import anywhere shows
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROBE, str(tmp_path_factory.mktemp("fresh"))],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_no_computing_command_loads_the_selftest_registry(fresh_run):
    # discrete-flow, hy-exp and two-point-scan among them
    assert fresh_run["hypflow.selftest"] is False


def test_no_cli_command_loads_scipy(fresh_run):
    seen = dict(fresh_run)
    seen.pop("hypflow.selftest")
    seen.pop("loaded by two-point-scan")
    assert seen.pop("scipy") == []
    assert seen == dict.fromkeys(
        ["discrete-flow", "converge", "janson-flow", "hy-flow --gaussian",
         "hy-flow --hermite-coeffs", "hy-exp", "two-point-scan"],
        EXIT_OK,
    )


def test_two_point_scan_loads_only_what_it_runs(fresh_run):
    # two-point-scan runs first in the fresh interpreter
    loaded = set(fresh_run["loaded by two-point-scan"])
    unused = ["hypflow.cube", "hypflow.flows", "hypflow.hermite", "hypflow.quadrature",
              "hypflow.gaussian_atoms", "hypflow.hausdorff_young", "numpy.polynomial"]
    assert loaded.isdisjoint(unused), sorted(loaded.intersection(unused))
    assert "hypflow.two_point" in loaded


_LOADS_PROBE = """
import json, sys
from hypflow.cli import main

seen = [["import hypflow.cli", None, sorted(sys.modules)]]
for argv in json.loads(sys.argv[1]):
    seen.append([argv, main(argv), sorted(sys.modules)])
print(json.dumps(seen))
"""

# what the standard-library front end must never load
_NUMERIC = ["numpy"] + [
    f"hypflow.{name}"
    for name in ("cube", "flows", "hermite", "quadrature", "gaussian_atoms",
                 "hausdorff_young", "two_point", "selftest")
]


def _loads(argvs: list) -> list:
    """[argv, exit code, sys.modules after it] for `import hypflow.cli` and
    then each argv run by main, all in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _LOADS_PROBE, json.dumps(argvs)],
        env=_fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


_GOOD_CONFIG = {"command": "discrete-flow", "params": {"n": 5, "p": 2.0, "q": 4.0, "coeffs": "0,1"}}
# config files that must each fail with exit 1 before anything runs
_BAD_CONFIGS = {
    "list": [_GOOD_CONFIG],
    "unknown key": {**_GOOD_CONFIG, "nodez": 64},
    "removed key nodes": {"command": "janson-flow", "params": {"p": 1.5, "coeffs": "1,1j"}, "nodes": "many"},
    "params not an object": {**_GOOD_CONFIG, "params": [1, 2]},
    "command not a string": {**_GOOD_CONFIG, "command": 5},
    "out not a string": {**_GOOD_CONFIG, "out": 5},
    "seed not an integer": {**_GOOD_CONFIG, "seed": "x"},
    "seed a bool": {**_GOOD_CONFIG, "seed": True},
    "tol not a number": {**_GOOD_CONFIG, "tol": "x"},
    "tol negative": {**_GOOD_CONFIG, "tol": -1.0},
}
# each flow command with an s grid too short to hold both ends, and a NaN
# tol, under which a decreasing flow would pass
_BAD_ARGVS = {
    f"{argv[0]} --s-points {count}": [*argv, "--s-points", str(count)]
    for argv in (
        ["janson-flow", "--p", "1.5", "--coeffs", "1,1j"],
        ["hy-flow", "--p", "1.5", "--gaussian"],
        ["hy-exp", "--p", "1.5", "--atoms", "1:0.5"],
    )
    for count in (0, 1)
}
_BAD_ARGVS["discrete-flow --tol nan"] = [
    "discrete-flow", "--n", "6", "--p", "2", "--q", "4", "--z-re", "0.95", "--coeffs", "0,1", "--tol", "nan"
]
# non-finite exponents, damping, coefficients and atoms: before, these ran
# and returned a verdict (or numpy's message for an empty argmin)
_BAD_ARGVS.update({
    "janson-flow --p nan": ["janson-flow", "--p", "nan", "--q", "4", "--coeffs", "1,1", "--s-points", "3"],
    "discrete-flow --q inf": ["discrete-flow", "--n", "6", "--p", "1.5", "--q", "inf", "--z-re", "0.3", "--coeffs", "0,1"],
    "converge --z-re nan": ["converge", "--p", "1.5", "--q", "4", "--z-re", "nan", "--coeffs", "0,1", "--n-list", "8,16"],
    "two-point-scan --p nan": ["two-point-scan", "--p", "nan", "--q", "4", "--resolution", "0.5"],
    "two-point-scan --q inf": ["two-point-scan", "--p", "2", "--q", "inf", "--resolution", "0.5"],
    "two-point-scan --resolution nan": ["two-point-scan", "--p", "2", "--q", "4", "--resolution", "nan"],
    # an empty grid, rejected before a header-only scan.csv is written
    "two-point-scan --resolution 3": ["two-point-scan", "--p", "2", "--q", "4", "--resolution", "3"],
    "janson-flow --coeffs nan,1": ["janson-flow", "--p", "1.5", "--coeffs", "nan,1", "--s-points", "3"],
    "discrete-flow --coeffs nan,1": [
        "discrete-flow", "--n", "6", "--p", "1.5", "--q", "4", "--z-re", "0.3", "--coeffs", "nan,1"
    ],
    "hy-flow --hermite-coeffs nan,1": ["hy-flow", "--p", "1.5", "--hermite-coeffs", "nan,1", "--s-points", "3"],
    "hy-exp --atoms nan:0.5": ["hy-exp", "--p", "1.5", "--atoms", "nan:0.5", "--s-points", "3"],
    "hy-exp --atoms 1:nan": ["hy-exp", "--p", "1.5", "--atoms", "1:nan", "--s-points", "3"],
})
# degrees whose j! or Krawtchouk values K_j leave float range: before, a raw
# OverflowError traceback
_ONES_172, _ONES_171 = ",".join(["1"] * 172), ",".join(["1"] * 171)
_BAD_ARGVS.update({
    f"discrete-flow degree 171 --n {n}": ["discrete-flow", "--n", str(n), "--p", "2", "--q", "4", "--coeffs", _ONES_172]
    for n in (6, 200)
})
_BAD_ARGVS["converge degree 171 --n-list 200"] = [
    "converge", "--p", "2", "--q", "4", "--coeffs", _ONES_172, "--n-list", "200"
]
_BAD_ARGVS["discrete-flow degree 170 --n 6000 --ks 0"] = [
    "discrete-flow", "--n", "6000", "--ks", "0", "--p", "2", "--q", "4", "--coeffs", _ONES_171
]


def _config_argv(config, path: Path, out: Path) -> list:
    """--config with `config` written to path, then --out unless the config sets out."""
    path.write_text(json.dumps(config))
    return ["--config", str(path), *([] if "out" in config else ["--out", str(out)])]


def test_front_end_loads_no_numeric_module(tmp_path):
    argvs = [["--help"], ["discrete-flow", "--help"], ["discrete-flow", "--n", "4"]]
    argvs += [
        _config_argv(config, tmp_path / f"{i}.json", tmp_path / "never")
        for i, config in enumerate(_BAD_CONFIGS.values())
    ]
    seen = _loads(argvs)
    assert [code for _, code, _ in seen] == [None, EXIT_OK, EXIT_OK] + [EXIT_USAGE] * (1 + len(_BAD_CONFIGS))
    for argv, _, loaded in seen:
        assert set(loaded).isdisjoint(_NUMERIC), (argv, sorted(set(loaded).intersection(_NUMERIC)))
    assert not (tmp_path / "never").exists()


def test_janson_flow_loads_no_hausdorff_young_layer(tmp_path):
    argv = ["janson-flow", "--p", "1.5", "--coeffs", "1,1j", "--s-points", "3", "--out", str(tmp_path)]
    [_, (_, code, loaded)] = _loads([argv])
    assert code == EXIT_OK and "hypflow.flows" in loaded
    assert "hypflow.hausdorff_young" not in loaded and "hypflow.gaussian_atoms" not in loaded


_FLOW_ARGVS = {
    "discrete-flow": ["discrete-flow", "--n", "12", "--p", "2", "--q", "4", "--z-re", "0.5", "--coeffs", "0,1,1"],
    "converge": ["converge", "--p", "1.5", "--q", "3", "--z-re", "0.5", "--coeffs", "0,1,0,1", "--n-list", "16,64"],
    "janson-flow": ["janson-flow", "--p", "1.5", "--coeffs", "1,1j", "--s-points", "3"],
    "hy-flow --gaussian": ["hy-flow", "--p", "1.5", "--gaussian", "--s-points", "3"],
    "hy-flow --hermite-coeffs": ["hy-flow", "--p", "1.5", "--hermite-coeffs", "1,0.5", "--s-points", "3"],
    "hy-exp": ["hy-exp", "--p", "1.5", "--atoms", "1:0.5,-0.3:-1.1", "--s-points", "3"],
}


@pytest.mark.parametrize(
    "name, argv",
    [*_FLOW_ARGVS.items(), ("two-point-scan", ["two-point-scan", "--p", "2", "--q", "4", "--resolution", "0.5"])],
    ids=[*_FLOW_ARGVS, "two-point-scan"],
)
def test_command_loads_no_generated_records(name, argv, tmp_path):
    # one fresh interpreter per command: records build no code with dataclasses,
    # and the flow commands take their exponents without the two-point search
    [(_, _, imported), (_, code, loaded)] = _loads([[*argv, "--out", str(tmp_path)]])
    assert code == EXIT_OK
    assert "dataclasses" not in imported and "dataclasses" not in loaded
    assert ("hypflow.two_point" in loaded) == (name == "two-point-scan")


def test_discrete_flow_loads_only_the_cube_layer(tmp_path):
    # the collapsed flow lives in cube: flows, hermite, quadrature and
    # numpy.polynomial load for converge, never for discrete-flow
    unused = ["hypflow.flows", "hypflow.hermite", "hypflow.quadrature", "numpy.polynomial"]
    discrete = [*_FLOW_ARGVS["discrete-flow"], "--out", str(tmp_path / "d")]
    converge = [*_FLOW_ARGVS["converge"], "--out", str(tmp_path / "c")]
    [_, (_, code, loaded), (_, converged, then)] = _loads([discrete, converge])
    assert code == EXIT_OK and "hypflow.cube" in loaded
    assert set(loaded).isdisjoint(unused), sorted(set(loaded).intersection(unused))
    assert converged == EXIT_OK and set(unused) <= set(then)


def _run_cold(argv, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "hypflow.cli", *argv], cwd=cwd, env=_fresh_env(), capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "argv, config",
    [
        *((argv, None) for argv in _BAD_ARGVS.values()),
        *(([], {"command": "hy-flow", "params": {"p": 1.5, "gaussian": True, "s_points": n}}) for n in (0, 1)),
        ([], {"command": "two-point-scan", "params": {"p": 1.5, "q": 3.0, "budget": "cheap"}}),
        *(([], config) for config in _BAD_CONFIGS.values()),
        ([], {"command": "discrete-flow", "params": {"n": 6.9, "p": 2.0, "q": 4.0, "coeffs": "0,1"}}),
        ([], {"command": "discrete-flow", "params": {"n": 6, "p": 2.0, "q": 4.0, "coeffs": "0,1", "ks": ","}}),
        ([], {"command": "converge", "params": {"p": 1.5, "q": 3.0, "coeffs": "0,1", "n_list": ","}}),
    ],
    ids=[
        *_BAD_ARGVS,
        "config s_points 0",
        "config s_points 1",
        "config budget cheap",
        *(f"config {name}" for name in _BAD_CONFIGS),
        "config n 6.9",
        "config ks empty",
        "config n_list empty",
    ],
)
def test_bad_input_exits_1_without_traceback(argv, config, tmp_path):
    if config is None:
        argv = [*argv, "--out", str(tmp_path / "out")]
    else:
        argv = _config_argv(config, tmp_path / "run.json", tmp_path / "out")
    done = _run_cold(argv, tmp_path)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out" / "manifest.json").exists()
    assert not list((tmp_path / "out").glob("*.csv"))
    assert {path.name for path in tmp_path.iterdir()} <= {"out", "run.json"}  # nothing in the working directory
    if config in _BAD_CONFIGS.values():  # rejected before the run starts
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, params, key",
    [
        ("janson-flow", {"p": 1.5, "coeffs": [1, 2]}, "coeffs"),
        ("discrete-flow", {"n": 6, "p": 2.0, "q": 4.0, "coeffs": [0, 1]}, "coeffs"),
        ("converge", {"p": 1.5, "q": 3.0, "coeffs": [0, 1], "n_list": "16,64"}, "coeffs"),
        ("hy-flow", {"p": 1.5, "hermite_coeffs": [1, 0.5]}, "hermite_coeffs"),
        ("hy-exp", {"p": 1.5, "atoms": ["1:0.5"]}, "atoms"),
        ("converge", {"p": 1.5, "q": 3.0, "coeffs": "0,1", "n_list": [16, 64]}, "n_list"),
        ("discrete-flow", {"n": 6, "p": 2.0, "q": 4.0, "coeffs": "0,1", "ks": [0, 2]}, "ks"),
    ],
    ids=[
        "janson-flow coeffs", "discrete-flow coeffs", "converge coeffs", "hy-flow hermite_coeffs", "hy-exp atoms",
        "converge n_list", "discrete-flow ks",
    ],
)
def test_config_list_for_a_string_exits_1_naming_the_key(command, params, key, tmp_path, capsys):
    argv = _config_argv({"command": command, "params": params}, tmp_path / "run.json", tmp_path / "out")
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be a comma-separated string") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "manifest.json").exists()


_DISCRETE_PARAMS = {"n": 6, "p": 2.0, "q": 4.0, "z_re": 0.5, "coeffs": "0,1,1"}


@pytest.mark.parametrize(
    "command, params, key",
    [
        ("discrete-flow", {**_DISCRETE_PARAMS, "n": 6.9}, "n"),
        ("discrete-flow", {**_DISCRETE_PARAMS, "n": "6.9"}, "n"),
        ("discrete-flow", {**_DISCRETE_PARAMS, "ks": "0,2.5"}, "ks"),
        ("converge", {"p": 1.5, "q": 3.0, "coeffs": "0,1", "n_list": "16,64.5"}, "n_list"),
        ("janson-flow", {"p": 1.5, "coeffs": "1,2", "s_points": 2.7}, "s_points"),
        ("hy-flow", {"p": 1.5, "gaussian": True, "s_points": 3.5}, "s_points"),
        ("hy-exp", {"p": 1.5, "atoms": "1:0.5", "s_points": "3.0"}, "s_points"),
    ],
    ids=["n 6.9", "n '6.9'", "ks 2.5", "n_list 64.5", "janson-flow s_points 2.7", "hy-flow s_points 3.5",
         "hy-exp s_points '3.0'"],
)
def test_config_non_integral_value_exits_1_naming_the_key(command, params, key, tmp_path, capsys):
    # before, int() truncated 6.9 to 6 and 2.7 to 2 and the run exited 0
    argv = _config_argv({"command": command, "params": params}, tmp_path / "run.json", tmp_path / "out")
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be an integer") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_config_integral_values_run_as_integers(tmp_path):
    # 6.0 and "6" name the dimension 6 does, and "0, 3" the split indices
    runs = [{**_DISCRETE_PARAMS, "ks": "0,3"}, {**_DISCRETE_PARAMS, "n": 6.0, "ks": "0, 3"}]
    runs.append({**_DISCRETE_PARAMS, "n": "6", "ks": "3,0"})
    for i, params in enumerate(runs):
        config = {"command": "discrete-flow", "params": params}
        assert main(_config_argv(config, tmp_path / f"{i}.json", tmp_path / str(i))) == EXIT_OK
    csvs = {(tmp_path / str(i) / "flow.csv").read_bytes() for i in range(len(runs))}
    assert len(csvs) == 1


@pytest.mark.parametrize("key", ["z_re", "z_im"])
def test_config_damping_given_as_a_string_reads_as_a_number(key, tmp_path):
    # as p does: "0.5" runs the flow that 0.5 runs
    params = {"p": 1.5, "coeffs": "1,1j", "s_points": 3}
    for i, value in enumerate((0.5, "0.5")):
        config = {"command": "janson-flow", "params": {**params, key: value}}
        assert main(_config_argv(config, tmp_path / f"{i}.json", tmp_path / str(i))) == EXIT_OK
    assert (tmp_path / "0" / "flow.csv").read_bytes() == (tmp_path / "1" / "flow.csv").read_bytes()


def test_removed_nodes_flag_exits_1_without_traceback(tmp_path):
    argv = ["janson-flow", "--p", "1.5", "--coeffs", "1,1j", "--nodes", "64", "--out", str(tmp_path / "out")]
    done = _run_cold(argv, tmp_path)
    assert done.returncode == EXIT_USAGE
    assert "unrecognized arguments: --nodes 64" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def _readme_examples() -> list:
    """Each `hypflow ...` line of the README's CLI block, as argv without `hypflow`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("hypflow ")]


def test_readme_cli_examples_exit_0(tmp_path):
    # one fresh interpreter runs every example, so a removed flag cannot linger in the docs
    argvs = []
    for i, argv in enumerate(_readme_examples()):
        if "--out" in argv:
            del argv[argv.index("--out") : argv.index("--out") + 2]
        if argv[0] == "selftest":
            argv.append("--quick")
        argvs.append([*argv, "--out", str(tmp_path / str(i))])
    assert {argv[0] for argv in argvs} == set(hypflow.cli._HANDLERS)
    seen = _loads(argvs)
    assert [(argv, code) for argv, code, _ in seen[1:]] == [(argv, EXIT_OK) for argv in argvs]


def test_janson_flow_manifest_reports_cut_and_cap_hits(tmp_path):
    # cold processes, as the CLI is run: x + x^3 at p = 4/3 hits the node cap near s = 1
    args = ["janson-flow", "--p", "1.3333333333333333", "--coeffs", "0,1,0,1", "--s-points", "5"]
    outs = []
    for sub in ("a", "b"):
        outs.append(tmp_path / sub)
        argv = [sys.executable, "-m", "hypflow.cli", *args, "--out", str(outs[-1])]
        done = subprocess.run(argv, env=_fresh_env(), capture_output=True)
        assert done.returncode == EXIT_OK, done.stderr
    assert (outs[0] / "flow.csv").read_bytes() == (outs[1] / "flow.csv").read_bytes()
    lines = (outs[0] / "flow.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,delta_to_prev" and len(lines) == 7
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert 0.0 < manifest["tail_bound"] <= 1e-15
    assert 0.0 < manifest["cells_kept_share"] < 1.0
    assert 1.0 in manifest["cap_hits"] and 0.0 not in manifest["cap_hits"]


def test_hy_exp_manifest_reports_cut_and_cap_hits(tmp_path):
    # the README family: the |.|^q kinks hold the doubling of the grids at
    # its cap near s = 1; the ends, graded at the zero of Phi_1, are resolved
    args = ["hy-exp", "--p", "1.3333333333333333", "--atoms", "1:0.5,-0.3:-1.1", "--s-points", "5"]
    code, out = run(args, tmp_path)
    assert code == EXIT_OK
    lines = (out / "flow.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,delta_to_prev" and len(lines) == 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "holds"
    assert 0.0 < manifest["tail_bound"] <= 1e-15
    assert 0.0 < manifest["cells_kept_share"] < 0.5
    assert manifest["cap_hits"] == [0.75]


def test_hy_calls_request_no_rule_above_512_nodes(tmp_path, monkeypatch):
    # the 1-D norms and the hy-exp ends run on graded Gauss-Legendre panels;
    # only the 2-D grids double Gauss-Hermite rules, up to 512 nodes
    sizes = []
    build = quadrature._gh_rule_cached
    monkeypatch.setattr(quadrature, "_gh_rule_cached", lambda n: sizes.append(n) or build(n))
    calls = [
        ["hy-exp", "--p", "1.5", "--atoms", "1:0.5,-0.3:-1.1"],
        ["hy-exp", "--p", "1.3333333333333333", "--atoms", "1:0.5,-0.3:-1.1,0.2:1.4", "--s-points", "5"],
        ["hy-exp", "--p", "1.3333333333333333", "--atoms", "1:5,-0.9:5.2", "--s-points", "3"],
        ["hy-flow", "--p", "1.5", "--gaussian"],
        ["hy-flow", "--p", "1.3333333333333333", "--hermite-coeffs", "0,1,0,1", "--s-points", "3"],
    ]
    for i, args in enumerate(calls):
        code, _ = run(args, tmp_path, sub=f"run{i}")
        assert code == EXIT_OK, args
    assert sizes and max(sizes) == 512


@pytest.mark.parametrize(
    "args",
    [
        ["janson-flow", "--p", "1.5", "--coeffs", "1,1j", "--s-points", "5"],
        ["discrete-flow", "--n", "8", "--p", "1.5", "--q", "3", "--z-re", "0.4", "--z-im", "0.2", "--coeffs", "0,1,1"],
        ["hy-exp", "--p", "1.5", "--atoms", "1:0.5,-0.3:-1.1"],
    ],
    ids=["janson-flow", "discrete-flow", "hy-exp"],
)
def test_determinism_byte_identical(tmp_path, args):
    code1, out1 = run(args, tmp_path, "a")
    code2, out2 = run(args, tmp_path, "b")
    assert code1 == code2 == EXIT_OK
    assert (out1 / "flow.csv").read_bytes() == (out2 / "flow.csv").read_bytes()


def test_janson_flow_constant_is_flat(tmp_path):
    code, out = run(["janson-flow", "--p", "1.5", "--coeffs", "2.5", "--s-points", "5"], tmp_path)
    assert code == EXIT_OK
    rows = [l for l in (out / "flow.csv").read_text().splitlines()[1:] if not l.startswith("#")]
    values = [float(r.split(",")[1]) for r in rows]
    assert max(values) - min(values) <= 1e-9
    assert json.loads((out / "manifest.json").read_text())["verdict"] == "nondecreasing"


_VIOLATED = ["discrete-flow", "--n", "6", "--p", "2", "--q", "4", "--z-re", "0.95", "--coeffs", "0,1"]


def test_violation_exit_code(tmp_path):
    # z = 0.95 is far beyond the (2, 4) threshold 1/sqrt(3): the flow decreases
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    code, out = run(_VIOLATED, tmp_path)
    assert code == EXIT_VIOLATION
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"].startswith("violated-at")
    assert manifest["min_delta"] < 0
    # only the process entry switches the collector off; nothing freezes it
    assert gc.get_freeze_count() == frozen and gc.isenabled() == enabled


def test_violation_exits_2_cold(tmp_path):
    # the process entry passes main's code to os._exit, and the outputs are
    # complete when the process ends without finalization
    done = _run_cold([*_VIOLATED, "--out", str(tmp_path / "out")], tmp_path)
    assert done.returncode == EXIT_VIOLATION, done.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["verdict"] == "violated-at(5, 1.626e-01)"
    lines = (tmp_path / "out" / "flow.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,delta_to_prev" and len(lines) == 9
    assert json.loads(lines[-1][2:]) == {"parameter_name": "k", "verdict": "violated-at(5, 1.626e-01)"}


def test_selftest_cold_output_arrives_through_a_pipe(tmp_path):
    # stdout is block-buffered into a pipe: without the flush before os._exit
    # the PASS lines would be lost with the process
    env = {key: value for key, value in _fresh_env().items() if key != "PYTHONUNBUFFERED"}
    argv = [sys.executable, "-m", "hypflow.cli", "selftest", "--quick", "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == len(selftest.CRITERIA) and lines[-1].startswith("[PASS] ")


def test_usage_errors(tmp_path):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["discrete-flow", "--n", "4", "--p", "2", "--q", "4", "--coeffs", "zz"]) == EXIT_USAGE
    # p > q is a config error, not a violation
    assert (
        main(
            [
                "discrete-flow",
                "--n",
                "4",
                "--p",
                "4",
                "--q",
                "2",
                "--coeffs",
                "0,1",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        == EXIT_USAGE
    )


def test_config_file_with_flag_override(tmp_path):
    cfg = {
        "command": "discrete-flow",
        "params": {"n": 5, "p": 2.0, "q": 4.0, "z_re": 0.5, "coeffs": "0,1"},
        "out": str(tmp_path / "from_config"),
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path)]) == EXIT_OK
    assert (tmp_path / "from_config" / "flow.csv").exists()
    # flags override the file
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "override")]) == EXIT_OK
    assert (tmp_path / "override" / "flow.csv").exists()


# (command, config params, flags after the command, the key the flags leave
# alone, what the run shows of it): each flag set names the command and
# overrides other keys, so the config's value of the key must reach the run
_KEPT_BY_NAMED_COMMAND = {
    "two-point-scan resolution": (
        "two-point-scan", {"p": 2, "q": 4, "resolution": 0.5}, ["--p", "2", "--q", "4"], "resolution",
        lambda out, manifest, spied: manifest["grid_points"], 13,
    ),
    "two-point-scan budget": (
        "two-point-scan", {"p": 2, "q": 4, "resolution": 0.5, "budget": "full"}, ["--p", "2", "--q", "4"], "budget",
        lambda out, manifest, spied: len((out / "scan.csv").read_text().splitlines()), 14,
    ),
    **{
        f"{argv[0]} s_points": (
            argv[0], {**params, "s_points": 3}, argv[1:], "s_points",
            lambda out, manifest, spied: len((out / "flow.csv").read_text().splitlines()), 5,
        )
        for argv, params in (
            (["janson-flow", "--p", "1.5"], {"coeffs": "1,1j"}),
            (["hy-flow", "--p", "1.5"], {"gaussian": True}),
            (["hy-exp", "--p", "1.5"], {"atoms": "1:0.5"}),
        )
    },
    "converge s": (
        "converge", {"s": 0.25}, ["--p", "1.5", "--q", "3", "--z-re", "0.5", "--coeffs", "0,1", "--n-list", "16,64"],
        "s", lambda out, manifest, spied: manifest["s"], 0.25,
    ),
    "hy-flow gaussian": (
        "hy-flow", {"gaussian": True}, ["--p", "1.5", "--s-points", "3"], "gaussian",
        lambda out, manifest, spied: manifest["phi0"] > 0, True,
    ),
    "selftest quick": (
        "selftest", {"quick": True}, ["--seed", "7"], "quick", lambda out, manifest, spied: spied, [(7, True)],
    ),
}


@pytest.mark.parametrize(
    "command, params, flags, key, shown, want", _KEPT_BY_NAMED_COMMAND.values(), ids=_KEPT_BY_NAMED_COMMAND
)
def test_config_keeps_its_keys_under_a_named_command(command, params, flags, key, shown, want, tmp_path, monkeypatch):
    # before, the parser's defaults (resolution 0.05, budget reduced, 21 s
    # samples, s 0.5, no gaussian, no quick) overwrote the config's values
    spied = []
    monkeypatch.setattr(selftest, "run_selftest", lambda seed, quick: spied.append((seed, quick)) or [])
    argv = _config_argv({"command": command, "params": params}, tmp_path / "run.json", tmp_path / "out")
    assert main([*argv, command, *flags]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["params"][key] == params[key]
    assert shown(tmp_path / "out", manifest, spied) == want


def test_config_supplies_what_the_flags_leave_out(tmp_path):
    # before, janson-flow's parser required --p and --coeffs although the file holds them
    config = {"command": "janson-flow", "params": {"p": 1.5, "coeffs": "1,2"}}
    argv = _config_argv(config, tmp_path / "run.json", tmp_path / "out")
    assert main([*argv, "janson-flow", "--s-points", "3"]) == EXIT_OK
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["params"] == {"p": 1.5, "coeffs": "1,2", "s_points": 3}
    assert len((tmp_path / "out" / "flow.csv").read_text().splitlines()) == 5


@pytest.mark.parametrize("from_config", [False, True], ids=["flags", "config"])
def test_missing_parameter_exits_1_naming_it(from_config, tmp_path):
    if from_config:
        config = {"command": "discrete-flow", "params": {"n": 6, "q": 4.0, "coeffs": "0,1"}}
        argv = _config_argv(config, tmp_path / "run.json", tmp_path / "out")
    else:
        argv = ["discrete-flow", "--n", "6", "--q", "4", "--coeffs", "0,1", "--out", str(tmp_path / "out")]
    done = _run_cold(argv, tmp_path)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error: missing parameter p: ") and done.stderr.count("\n") == 1, done.stderr
    assert "--p" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["discrete-flow", "--n", "12", "--p", "1.5", "--z-re", "0.3", "--coeffs", "0,1,1"],
        ["converge", "--p", "1.5", "--z-re", "0.5", "--coeffs", "0,1,0,1", "--n-list", "16,64"],
    ],
    ids=["discrete-flow", "converge"],
)
def test_q_defaults_to_the_conjugate_exponent(argv, tmp_path):
    # p = 1.5: the conjugate exponent is 3; before, --q was required here
    assert main([*argv, "--q", "3", "--out", str(tmp_path / "q")]) == EXIT_OK
    assert main([*argv, "--out", str(tmp_path / "conj")]) == EXIT_OK
    [csv] = {"flow.csv", "convergence.csv"} & {path.name for path in (tmp_path / "q").iterdir()}
    assert (tmp_path / "q" / csv).read_bytes() == (tmp_path / "conj" / csv).read_bytes()
    manifests = [json.loads((tmp_path / name / "manifest.json").read_text()) for name in ("q", "conj")]
    assert manifests[0]["q"] == manifests[1]["q"] == 3.0


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"p": 1.5, "hermite_coeffs": "1,0.5"}, ["--gaussian"]),
        ({"p": 1.5, "gaussian": True}, ["--hermite-coeffs", "1,0.5"]),
        ({}, ["--p", "1.5", "--gaussian", "--hermite-coeffs", "1,0.5"]),
        ({"p": 1.5}, []),
    ],
    ids=["config coeffs, flag gaussian", "config gaussian, flag coeffs", "flags both", "neither"],
)
def test_hy_flow_needs_exactly_one_input(config, flags, tmp_path, capsys):
    argv = _config_argv({"command": "hy-flow", "params": config}, tmp_path / "run.json", tmp_path / "out")
    assert main([*argv, "hy-flow", *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: hy-flow needs exactly one of gaussian and hermite_coeffs\n"
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_discrete_flow_ignores_trailing_zero_coefficients(tmp_path):
    # before, the 200 zeros set the degree to 204, out of float range at n = 50
    argv = ["discrete-flow", "--n", "50", "--p", "2", "--q", "4", "--z-re", "0.3"]
    padded = ",".join(["1"] * 5 + ["0"] * 200)
    assert main([*argv, "--coeffs", padded, "--out", str(tmp_path / "padded")]) == EXIT_OK
    assert main([*argv, "--coeffs", "1,1,1,1,1", "--out", str(tmp_path / "plain")]) == EXIT_OK
    assert (tmp_path / "padded" / "flow.csv").read_bytes() == (tmp_path / "plain" / "flow.csv").read_bytes()


def test_run_config_round_trip():
    cfg = RunConfig(command="selftest", params={"quick": True}, out="/tmp/x", seed=7)
    again = RunConfig.from_json(json.loads(json.dumps(cfg.to_json())))
    assert again.to_json() == cfg.to_json()
    with pytest.raises(ValueError):
        RunConfig.from_json({"command": "selftest", "params": {}, "bogus": 1})


def test_two_point_scan_small_grid(tmp_path):
    code, out = run(
        ["two-point-scan", "--p", "2", "--q", "4", "--resolution", "0.5"], tmp_path
    )
    assert code == EXIT_OK
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "p,q,z_re,z_im,infinitesimal_margin_min,sup_ratio,witness_b_re,witness_b_im"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "holds-on-grid"
    assert manifest["grid_points"] == len(lines) - 1


def test_hy_flow_manifest_fields(tmp_path):
    code, out = run(["hy-flow", "--p", "1.5", "--gaussian", "--s-points", "5"], tmp_path)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    for key in ("p", "q", "z", "phi0", "phi1", "constant", "verdict"):
        assert key in manifest
    assert abs(manifest["phi0"] - manifest["phi1"]) <= 1e-8


def test_hy_flow_manifest_lists_capped_samples(tmp_path):
    # at p = 1.5 (q = 3) |h|^3 is not smooth where h vanishes, and no sample
    # of this input settles to 1e-10 by 512 nodes: the manifest must say so
    code, out = run(["hy-flow", "--p", "1.5", "--hermite-coeffs", "1,2,0,1"], tmp_path)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["cap_hits"] == [float(s) for s in np.linspace(0.0, 1.0, 21)]
    assert 0.0 < manifest["tail_bound"] <= 1e-15 and 0.0 < manifest["cells_kept_share"] < 1.0
    # the atom route is closed form and forms no grid: it reports cap_hits alone, empty
    code, out = run(["hy-flow", "--p", "1.5", "--gaussian", "--s-points", "5"], tmp_path, "gaussian")
    manifest = json.loads((out / "manifest.json").read_text())
    assert code == EXIT_OK and manifest["cap_hits"] == []
    assert "tail_bound" not in manifest and "cells_kept_share" not in manifest


def test_hy_exp_runs_final_form(tmp_path):
    code, out = run(
        ["hy-exp", "--p", "1.5", "--atoms", "1:0.5,-0.3:-1.1", "--s-points", "5"], tmp_path
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "holds"
    ff = manifest["final_form"]
    assert ff["lhs_norm_fhat_q"] <= ff["rhs_scaled_norm_f_p"] + 1e-8
    assert manifest["nesting"] == "outer-x-inner-u"


def test_hy_exp_large_constant_flow_holds_within_a_relative_tol(tmp_path):
    # one atom with imaginary frequency: a constant flow near 8e46, whose ends
    # differ by rounding (1.7e-14 relative), far above an absolute 1e-8
    code, out = run(["hy-exp", "--p", "1.5", "--atoms", "1:12j", "--s-points", "3"], tmp_path)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "holds" and "witness" not in manifest
    assert manifest["phi0"] > 1e46 and manifest["phi0"] != manifest["phi1"]


def _scale_sharp_constant(monkeypatch, factor):
    # hy_endpoints and hy_verify look the constant up in their module when they run
    real = hausdorff_young.sharp_constant
    monkeypatch.setattr(hausdorff_young, "sharp_constant", lambda p: factor * real(p))


def _witness(out):
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest["verdict"], manifest.get("witness")


def test_hy_flow_sharp_bound_fails_past_the_default_tol(tmp_path, monkeypatch):
    # at the Gaussian the two sides are equal; the scaled constant puts lhs 5e-8 above rhs
    _scale_sharp_constant(monkeypatch, 1.0 - 6e-8)
    args = ["hy-flow", "--p", "1.5", "--gaussian", "--s-points", "5"]
    code, out = run(args, tmp_path)
    assert code == EXIT_VIOLATION
    verdict, witness = _witness(out)
    assert verdict == "fails-with-witness" and witness["check"] == "sharp_bound"
    assert 4e-8 < witness["lhs"] - witness["rhs"] < 6e-8 and witness["tol"] == 1e-8
    assert (out / "flow.csv").exists()
    # --tol loosens the same check
    code, out = run([*args, "--tol", "1e-7"], tmp_path, "loose")
    assert code == EXIT_OK
    assert _witness(out) == ("nondecreasing", None)


def test_hy_flow_tol_0_flags_an_endpoint_excess_of_1e_12(tmp_path, monkeypatch):
    inp = hausdorff_young.HYInput(p=1.5, g_tilde=HermiteSeries([1.0, 2.0, 0.0, 1.0]))
    lhs, rhs = hausdorff_young.hy_endpoints(inp)
    _scale_sharp_constant(monkeypatch, (lhs - 1e-12) / rhs)
    args = ["hy-flow", "--p", "1.5", "--hermite-coeffs", "1,2,0,1", "--s-points", "5"]
    code, out = run([*args, "--tol", "0"], tmp_path)
    assert code == EXIT_VIOLATION
    verdict, witness = _witness(out)
    assert verdict == "fails-with-witness" and witness["check"] == "sharp_bound"
    assert 0.0 < witness["lhs"] - witness["rhs"] < 2e-12 and witness["tol"] == 0.0
    # the flow itself shows no dip at tol 0, and the default tol passes the excess
    code, out = run(args, tmp_path, "default")
    assert code == EXIT_OK


def test_hy_flow_nan_endpoint_fails(tmp_path, monkeypatch):
    real = hausdorff_young.fourier_transform_atom
    monkeypatch.setattr(
        hausdorff_young,
        "fourier_transform_atom",
        lambda atom: real(atom)._replace(amplitude=math.nan),
    )
    code, out = run(["hy-flow", "--p", "1.5", "--gaussian", "--s-points", "5"], tmp_path)
    assert code == EXIT_VIOLATION
    verdict, witness = _witness(out)
    assert verdict == "fails-with-witness" and witness["check"] == "sharp_bound"
    assert math.isnan(witness["lhs"])


def test_hy_exp_final_form_failure_is_named(tmp_path, monkeypatch):
    # one real atom is a translated Gaussian: the final form holds with equality
    _scale_sharp_constant(monkeypatch, 1.0 - 1e-6)
    code, out = run(["hy-exp", "--p", "1.5", "--atoms", "1:0.5", "--s-points", "5"], tmp_path)
    assert code == EXIT_VIOLATION
    verdict, witness = _witness(out)
    assert verdict == "fails-with-witness" and witness["check"] == "final_form"
    assert witness["lhs"] > witness["rhs"] + 1e-8
    assert (out / "flow.csv").exists()


def test_hy_exp_exits_2_when_its_flow_dips(tmp_path, monkeypatch):
    # the ends hold (phi(0) <= phi(1)) but the flow dips 1e-6 between them
    rep = FlowReport(parameter_name="s", samples=((0.0, 1.0), (0.5, 1.0 - 1e-6), (1.0, 1.0)))
    monkeypatch.setattr(hausdorff_young, "exp_flow_phi", lambda *args, **kwargs: rep)
    code, out = run(["hy-exp", "--p", "1.5", "--atoms", "1:0.5"], tmp_path)
    assert code == EXIT_VIOLATION
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"].startswith("violated-at") and not manifest["nondecreasing"]
    assert "witness" not in manifest and "final_form" in manifest


def test_selftest_records_a_sharp_bound_violation(tmp_path, monkeypatch):
    # hy_verify returns lhs > rhs; criterion 9 must list it, not raise
    _scale_sharp_constant(monkeypatch, 1.0 - 1e-3)
    monkeypatch.setattr(selftest, "CRITERIA", selftest.CRITERIA[8:9])
    code, out = run(["selftest", "--quick"], tmp_path)
    assert code == EXIT_VIOLATION
    (entry,) = json.loads((out / "manifest.json").read_text())["suites"]
    assert entry["name"] == "9 exponential-family pipeline" and not entry["passed"]
    equalities = [f for f in entry["failures"] if f.startswith("single-atom equality")]
    assert len(equalities) == 3


def test_selftest_records_an_unresolved_norm(tmp_path, monkeypatch):
    # 4- and 6-point panels leave hy_verify's norms unresolved; criterion 9
    # must list each AccuracyError as a failed check, not raise
    monkeypatch.setattr(gaussian_atoms, "_PANEL_RULES", (4, 6))
    monkeypatch.setattr(selftest, "CRITERIA", selftest.CRITERIA[8:9])
    code, out = run(["selftest", "--quick"], tmp_path)
    assert code == EXIT_VIOLATION
    (entry,) = json.loads((out / "manifest.json").read_text())["suites"]
    assert entry["name"] == "9 exponential-family pipeline" and not entry["passed"]
    unresolved = [f for f in entry["failures"] if "not resolved" in f]
    assert unresolved and all(f.startswith(("single-atom equality", "sharp bound")) for f in unresolved)


def test_selftest_quick_and_seed_robust(tmp_path):
    for seed in ("12345", "999", "31337"):
        code, out = run(["selftest", "--quick", "--seed", seed], tmp_path, f"st{seed}")
        assert code == EXIT_OK
        suites = json.loads((out / "manifest.json").read_text())["suites"]
        assert [entry["name"] for entry in suites] == [name for name, _ in selftest.CRITERIA]
        for entry in suites:
            assert entry["passed"] and entry["checks"] > 0 and entry["elapsed_s"] >= 0.0
            assert entry["failures"] == [] and entry["worst_error_over_tol"] <= 1.0


def test_selftest_failing_check_exits_2(tmp_path, monkeypatch):
    def forced(rec, rng, quick):
        rec.check("forced check", 2.0, 1.0)

    monkeypatch.setattr(selftest, "CRITERIA", selftest.CRITERIA[:1] + (("forced failure", forced),))
    code, out = run(["selftest", "--quick"], tmp_path)
    assert code == EXIT_VIOLATION
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "fail"
    first, entry = manifest["suites"]
    assert first["passed"] and entry["name"] == "forced failure" and not entry["passed"]
    assert entry["failures"] == ["forced check: error 2.000e+00 > tol 1.0e+00"]
    assert entry["worst_error_over_tol"] == 2.0


def test_recorder_reports_a_nan_error_as_infinitely_bad():
    rec = selftest.SuiteResult("nan")
    rec.check("fine", 0.5, 1.0)
    rec.check("nan", float("nan"), 1.0)
    rec.check("fine again", 0.25, 1.0)
    assert not rec.passed and rec.checks == 3
    assert rec.failures == ["nan: error nan > tol 1.0e+00"]
    assert rec.worst_error_over_tol == math.inf


def test_converge_command(tmp_path):
    code, out = run(
        [
            "converge",
            "--p",
            str(4 / 3),
            "--q",
            "4",
            "--coeffs",
            "0,1,0,1",
            "--s",
            "0.5",
            "--n-list",
            "16,64,256",
        ],
        tmp_path,
    )
    assert code == EXIT_OK
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "n,k,discrete,continuous,abs_error"
    assert len(lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["errors_strictly_decreasing"]
    assert manifest["slope"] is not None
    continuous = manifest["continuous"]
    assert continuous["cap_hits"] == []
    assert 0.0 < continuous["tail_bound"] <= 1e-15 and 0.0 < continuous["cells_kept_share"] < 1.0


@pytest.mark.parametrize(
    "args",
    [
        ["hy-flow", "--p", "1.5", "--hermite-coeffs", "1,2,0,1", "--s-points", "3"],
        ["converge", "--p", str(4 / 3), "--q", "4", "--coeffs", "0,1,0,1", "--n-list", "16,64"],
    ],
    ids=["hy-flow", "converge"],
)
def test_polynomial_flows_report_an_evaluator_mismatch(args, tmp_path, monkeypatch):
    # both sample J through janson_flow, so its quadrature spot check runs:
    # a reference off by ten times its 1e-6 tolerance is a witness, exit 2
    quadrature_j = flows.janson_quadrature
    monkeypatch.setattr(flows, "janson_quadrature", lambda *a, **kw: quadrature_j(*a, **kw) * (1 + 1e-5))
    code, out = run(args, tmp_path)
    assert code == EXIT_VIOLATION
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdict"] == "fails-with-witness"
    assert "evaluators disagree at s = " in manifest["violation"]


def test_empty_flow_report_writes_header_only(tmp_path):
    rep = FlowReport(parameter_name="s", samples=())
    write_flow_csv(rep, tmp_path / "empty.csv")
    lines = (tmp_path / "empty.csv").read_text().splitlines()
    assert lines[0] == "parameter,value,delta_to_prev"
    assert lines[1].startswith("# ")


def test_flow_report_verdict_tolerances():
    # a dip below tolerance is not a violation; beyond it, it is
    ok = FlowReport(parameter_name="s", samples=((0.0, 1.0), (1.0, 1.0 - 1e-12)))
    assert ok.verdict().nondecreasing
    bad = FlowReport(parameter_name="s", samples=((0.0, 1.0), (1.0, 1.0 - 1e-6)))
    verdict = bad.verdict()
    assert not verdict.nondecreasing
    assert verdict.index == 0
    assert abs(verdict.deficit - 1e-6) <= 1e-9
    with pytest.raises(ValueError):
        FlowReport(parameter_name="s", samples=((0.0, 1.0), (0.0, 2.0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_flow_sample_is_never_a_pass(bad, tmp_path, monkeypatch):
    rep = FlowReport(parameter_name="s", samples=((0.0, 1.0), (0.5, bad), (1.0, 1.0)))
    with pytest.raises(AccuracyError):
        rep.verdict()
    with pytest.raises(AccuracyError):
        write_flow_csv(rep, tmp_path / "flow.csv")
    # the handler imports phi_flow when it runs, from its home module
    monkeypatch.setattr(hausdorff_young, "phi_flow", lambda *args, **kwargs: rep)
    code, out = run(["hy-flow", "--p", "1.5", "--gaussian"], tmp_path)
    assert code == EXIT_VIOLATION
    assert json.loads((out / "manifest.json").read_text())["verdict"] == "fails-with-witness"


def test_run_command_unknown():
    assert run_command(RunConfig(command="nope", params={})) == EXIT_USAGE
