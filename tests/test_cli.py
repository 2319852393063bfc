import errno
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavity_entangler.cli as cli_module
from cavity_entangler import ArgumentError, RegimeWarning, kappa_from_quality
from cavity_entangler.cli import (
    CSV_HEADER,
    MAX_DUMP_H_QUBITS,
    RunConfig,
    config_from_dict,
    main,
    parse_frequency,
    three_level_transfer_fidelity,
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestFrequencyParsing:
    def test_plain_number_is_angular(self):
        assert parse_frequency(2.5e4) == 2.5e4

    def test_hz_family_converted(self):
        assert parse_frequency("10 MHz") == pytest.approx(2 * math.pi * 1e7)
        assert parse_frequency("1.5 GHz") == pytest.approx(2 * math.pi * 1.5e9)
        assert parse_frequency("3 kHz") == pytest.approx(2 * math.pi * 3e3)
        assert parse_frequency("2e4 rad/s") == pytest.approx(2e4)

    def test_garbage_rejected(self):
        with pytest.raises(ArgumentError):
            parse_frequency("fast")
        with pytest.raises(ArgumentError):
            parse_frequency("10 parsecs")


class TestConfigParsing:
    def test_kappa_and_quality_are_exclusive(self):
        with pytest.raises(ArgumentError):
            config_from_dict(
                {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0,
                 "Q": 1e7, "nu_c": 4e10}
            )
        with pytest.raises(ArgumentError):
            config_from_dict({"protocol": "cluster", "N": 2, "lambdas": 1.0})

    def test_quality_pair_resolves_kappa(self):
        cfg = config_from_dict(
            {"protocol": "cluster", "N": 2, "lambdas": 1.0, "Q": 1e7, "nu_c": "40 GHz"}
        )
        assert cfg.kappa == pytest.approx(kappa_from_quality(1e7, 4e10))

    def test_coupling_triple(self):
        cfg = config_from_dict(
            {"protocol": "cluster", "N": 2, "kappa": 0.0,
             "lambdas": {"g": 1.8e8, "omega": 8.5e7, "delta": 1.5e9}}
        )
        assert cfg.lambdas.tolist() == [pytest.approx(1.02e7)] * 2

    def test_wstate_lambdas_are_rest_couplings(self):
        cfg = config_from_dict(
            {"protocol": "wstate", "N": 4, "lambdas": [1.0, 1.0, 2.0], "kappa": 0.0}
        )
        assert len(cfg.lambdas) == 3

    def test_bad_protocol(self):
        with pytest.raises(ArgumentError):
            config_from_dict({"protocol": "ghz", "N": 2, "lambdas": 1.0, "kappa": 0})

    @pytest.mark.parametrize("value", [4, 4.0, "4"])
    def test_integral_n_accepted(self, value):
        cfg = config_from_dict({"protocol": "cluster", "N": value, "lambdas": 1.0, "kappa": 0})
        assert cfg.n == 4 and cfg.lambdas.tolist() == [1.0] * 4

    def test_per_qubit_lambdas_covering_the_sweep_accepted(self):
        cfg = config_from_dict(
            {"protocol": "cluster", "N": 5, "lambdas": [1.0, 2.0, 3.0, 4.0, 5.0], "kappa": 0,
             "sweep": {"kappa_over_lambda": {"start": 0, "stop": "0.1", "steps": 2.0},
                       "N_list": [3, "5"]}}
        )
        assert cfg.sweep == {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 2},
                             "N_list": [3, 5]}


_GRID = {"start": 0.0, "stop": 0.1, "steps": 2}
_BAD_CONFIGS = {
    "unparsable-Q": {"protocol": "cluster", "N": 4, "lambdas": 1.0, "Q": "1e", "nu_c": 4e10},
    "word-N": {"protocol": "cluster", "N": "four", "lambdas": 1.0, "kappa": 0.0},
    "fractional-N": {"protocol": "cluster", "N": 4.9, "lambdas": 1.0, "kappa": 0.0},
    "top-level-list": [{"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0}],
    "grid-without-stop": {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0,
                          "sweep": {"kappa_over_lambda": {"start": 0.0, "steps": 2}}},
    "bad-N_list-entry": {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0,
                         "sweep": {"kappa_over_lambda": _GRID, "N_list": [4, "x"]}},
    "short-cluster-lambdas": {"protocol": "cluster", "N": 3, "lambdas": [1.0, 2.0, 3.0],
                              "kappa": 0.0,
                              "sweep": {"kappa_over_lambda": _GRID, "N_list": [3, 5]}},
    "short-wstate-lambdas": {"protocol": "wstate", "N": 3, "lambdas": [1.0, 2.0],
                             "kappa": 0.0,
                             "sweep": {"kappa_over_lambda": _GRID, "N_list": [3, 4]}},
    "zero-coupling": {"protocol": "cluster", "N": 4, "lambdas": 0, "kappa": 0.0},
    "huge-N": {"protocol": "cluster", "N": 10**30, "lambdas": 1.0, "kappa": 0.0},
    "non-string-output": {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0,
                          "output": 5},
    "non-object-three_level": {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0,
                               "three_level": [1.0]},
    "zero-detuning": {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0,
                      "three_level": {"delta": 0}},
}


class TestConfigBoundary:
    @pytest.mark.parametrize("command", ["run", "sweep", "validate"])
    @pytest.mark.parametrize("doc", list(_BAD_CONFIGS.values()), ids=list(_BAD_CONFIGS))
    def test_bad_config_exits_1(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, doc)
        output = ["--output", str(tmp_path / "out.csv")] if command == "sweep" else []
        code = main([command, "--config", cfg] + output)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["bad-utf8", "deep-nesting"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config")


# each case overrides fields of this config; None drops the field
_BOOL_CLUSTER = {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0}
_BOOL_FIELDS = {
    "lambdas": {"lambdas": True},
    "lambdas-entry": {"lambdas": [1.0, True, 1.0]},
    "triple-g": {"lambdas": {"g": True, "omega": 8.5e7, "delta": 1.5e9}},
    "triple-omega": {"lambdas": {"g": 1.8e8, "omega": True, "delta": 1.5e9}},
    "triple-delta": {"lambdas": {"g": 1.8e8, "omega": 8.5e7, "delta": True}},
    "kappa-false": {"kappa": False},
    "kappa-true": {"kappa": True},
    "Q": {"kappa": None, "Q": True, "nu_c": 4e10},
    "nu_c": {"kappa": None, "Q": 1e7, "nu_c": True},
    "wstate-lambdas-entry": {"protocol": "wstate", "lambdas": [1.0, True]},
    "wstate-Q": {"protocol": "wstate", "kappa": None, "Q": True, "nu_c": 4e10},
    "sweep-start": {"sweep": {"kappa_over_lambda": {"start": False, "stop": 0.1, "steps": 2}}},
    "sweep-stop": {"sweep": {"kappa_over_lambda": {"start": 0.0, "stop": True, "steps": 2}}},
    "three_level-g": {"three_level": {"g": True}},
    "three_level-omega": {"three_level": {"omega": True}},
    "three_level-delta": {"three_level": {"delta": True}},
    "feasibility-g": {"feasibility": {"g": True}},
    "feasibility-omega": {"feasibility": {"omega": True}},
    "feasibility-delta": {"feasibility": {"delta": True}},
    "feasibility-Q": {"feasibility": {"Q": True}},
    "feasibility-nu_c": {"feasibility": {"nu_c": True}},
}


class TestBooleanValues:
    """JSON true/false is not a number in any numeric field."""

    @pytest.mark.parametrize("fields", list(_BOOL_FIELDS.values()), ids=list(_BOOL_FIELDS))
    def test_boolean_number_exits_1(self, tmp_path, capsys, fields):
        doc = {k: v for k, v in {**_BOOL_CLUSTER, **fields}.items() if v is not None}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out.csv"
        command = ["sweep", "--output", str(out)] if "sweep" in doc else ["run"]
        code = main(command[:1] + ["--config", cfg] + command[1:])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("command, flags", [
    ("sweep", ["--output", "{bad}"]),
    ("sweep", ["--output", "{csv}", "--gnuplot", "{bad}"]),
    ("run", ["--dump-state", "{bad}"]),
    ("run", ["--dump-h", "{bad}"]),
], ids=["output", "gnuplot", "dump-state", "dump-h"])
def test_unwritable_output_exits_1(tmp_path, capsys, command, flags):
    bad = tmp_path / "missing" / "x"
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
                                  "sweep": {"kappa_over_lambda": _GRID}})
    argv = [command, "--config", cfg] + [f.format(bad=bad, csv=tmp_path / "c.csv") for f in flags]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, flags", [
    ("sweep", ["--output", "{bad}"]),
    ("sweep", ["--output", "{csv}", "--gnuplot", "{bad}"]),
    ("run", ["--dump-state", "{bad}"]),
    ("run", ["--dump-h", "{bad}"]),
], ids=["output", "gnuplot", "dump-state", "dump-h"])
def test_unwritable_output_refused_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                   flags):
    def no_work(*args):
        raise AssertionError("work started before the output path check")

    monkeypatch.setattr(cli_module, "_sweep_point", no_work)
    monkeypatch.setattr(cli_module, "_execute", no_work)
    bad, csv = tmp_path / "missing" / "x", tmp_path / "c.csv"
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
                                  "sweep": {"kappa_over_lambda": _GRID}})
    argv = [command, "--config", cfg] + [f.format(bad=bad, csv=csv) for f in flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {bad}: ")
    assert not csv.exists()           # the check of a writable path leaves no file


def test_output_check_keeps_an_existing_file(tmp_path, capsys, monkeypatch):
    # the check opens without truncating; only a completed sweep replaces the file
    def failing_rows(task):
        raise RuntimeError("induced failure after the output path check")

    out = tmp_path / "old.csv"
    out.write_text("old contents\n")
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
                                  "sweep": {"kappa_over_lambda": _GRID}})
    monkeypatch.setattr(cli_module, "_sweep_point", failing_rows)
    with pytest.raises(RuntimeError):
        main(["sweep", "--config", cfg, "--output", str(out)])
    assert out.read_text() == "old contents\n"


class _FullDisk:
    """A file opened for writing that takes one line, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, lines):
        self.fh.write(next(iter(lines)))
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def _full_disk_open(path, mode="r", **kwargs):
    fh = open(path, mode, **kwargs)
    return _FullDisk(fh) if mode == "w" else fh


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
def test_failed_write_leaves_no_partial_csv(tmp_path, capsys, monkeypatch, existed):
    out = tmp_path / "out.csv"
    if existed:
        out.write_text("old contents\n")
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
                                  "sweep": {"kappa_over_lambda": _GRID}})
    monkeypatch.setattr(cli_module, "open", _full_disk_open, raising=False)
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No space left on device\n"
    assert not out.exists()


def test_failed_removal_still_exits_1(tmp_path, capsys, monkeypatch):
    def refused(path):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    out = tmp_path / "out.csv"
    out.write_text("old contents\n")
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
                                  "sweep": {"kappa_over_lambda": _GRID}})
    monkeypatch.setattr(cli_module, "open", _full_disk_open, raising=False)
    monkeypatch.setattr(cli_module.os, "unlink", refused)
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: No space left on device\n"


@pytest.mark.skipif(not (os.path.exists("/dev/full") and stat.S_ISCHR(os.stat("/dev/full").st_mode)),
                    reason="needs the /dev/full device")
def test_failed_write_to_a_device_leaves_the_device(tmp_path, capsys):
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
                                  "sweep": {"kappa_over_lambda": _GRID}})
    assert main(["sweep", "--config", cfg, "--output", "/dev/full"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and len(err.splitlines()) == 1
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)


def test_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    seen = []

    def record(config, args):
        seen.append(vars(args))
        return 0

    monkeypatch.setattr(cli_module, "cmd_run", record)
    monkeypatch.setattr(cli_module, "cmd_sweep", record)
    cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0})
    assert main(["sweep", "--config", cfg, "--output", "a.csv", "--jobs", "3",
                 "--gnuplot", "a.gp", "--fidelity-convention", "raw"]) == 0
    assert main(["run", "--config", cfg, "--dump-state", "s.txt"]) == 0
    assert main(["run", "--config", cfg]) == 0
    assert main(["sweep", "--config", cfg]) == 0
    common = {"config": cfg, "fidelity_convention": "normalized"}
    assert seen[1:] == [
        {"command": "run", **common, "dump_state": "s.txt", "dump_h": None},
        {"command": "run", **common, "dump_state": None, "dump_h": None},
        {"command": "sweep", **common, "output": None, "jobs": 1, "gnuplot": None},
    ]
    assert seen[0]["jobs"] == 3 and seen[0]["fidelity_convention"] == "raw"


class TestUsage:
    """Usage errors exit 1 like config errors; each subcommand takes only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["sweep"],
        [],
        ["sweep", "--config", "{cfg}", "--jobs", "x"],
        ["run", "--config", "{cfg}", "--fidelity-convention", "other"],
        ["run", "--config", "{cfg}", "--output", "{out}"],
        ["run", "--config", "{cfg}", "--jobs", "2"],
        ["run", "--config", "{cfg}", "--gnuplot", "{out}"],
        ["sweep", "--config", "{cfg}", "--dump-h", "{out}"],
        ["sweep", "--config", "{cfg}", "--dump-state", "{out}"],
        ["validate", "--jobs", "4", "--dump-h", "{out}"],
        ["validate", "--fidelity-convention", "raw"],
        ["validate", "--output", "{out}"],
    ], ids=lambda argv: " ".join(argv) or "no-command")
    def test_usage_error_exits_1(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {"protocol": "cluster", "N": 4, "lambdas": 1.0,
                                      "kappa": 0.0, "output": str(tmp_path / "c.csv")})
        out = tmp_path / "out.txt"
        code = main([arg.format(cfg=cfg, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: cavity-entangler")
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["sweep", "-h"],
                                      ["validate", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: cavity-entangler" in capsys.readouterr().out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
_FIELD = _JSON | st.sampled_from([
    0, 2, 4, 30, "4", 4.0, 4.9, -1, "four", "1e", "10 MHz", "3 parsecs", float("inf"),
    float("nan"), 10**7, [1.0, 2.0], [1.0] * 4, {"g": 1.8e8, "omega": 8.5e7, "delta": 1.5e9},
    {"g": 1.0},
])
_SWEEP = _FIELD | st.fixed_dictionaries({}, optional={
    "kappa_over_lambda": _FIELD | st.fixed_dictionaries(
        {}, optional={"start": _FIELD, "stop": _FIELD, "steps": _FIELD}),
    "N_list": st.lists(_FIELD, max_size=3),
})
_DOCUMENT = _JSON | st.fixed_dictionaries(
    {"protocol": st.sampled_from(["cluster", "wstate"]) | _JSON,
     "N": st.integers(2, 40) | _FIELD},
    optional={key: _FIELD for key in ("lambdas", "kappa", "Q", "nu_c", "mode", "output",
                                      "three_level", "feasibility")} | {"sweep": _SWEEP},
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENT)
def test_config_from_dict_returns_config_or_argument_error(doc):
    try:
        config = config_from_dict(doc)
    except ArgumentError:
        return
    assert isinstance(config, RunConfig)


class TestRunCommand:
    def test_ideal_cluster_run_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": 0.0}
        )
        code = main(["run", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "F=1.000000000000" in out
        assert "P=1.000000000000" in out
        assert "protocol=cluster" in out

    def test_analytic_runs_never_import_scipy(self, tmp_path):
        import subprocess
        import sys

        configs = [
            write_config(tmp_path, {"protocol": "cluster", "N": 4, "lambdas": 1.0,
                                    "kappa": 0.01}, "cluster.json"),
            write_config(tmp_path, {"protocol": "wstate", "N": 5, "lambdas": 1.0,
                                    "kappa": 0.01}, "w.json"),
        ]
        script = (
            "import sys\n"
            "import cavity_entangler.cli as cli\n"
            f"codes = [cli.main(['run', '--config', c]) for c in {configs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout.splitlines()[-1] == "[0, 0] []"

    def test_regime_violation_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.5}
        )
        code = main(["run", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert "0.1" in err

    def test_regime_edge_built_by_multiplication_runs(self, tmp_path, capsys):
        lam = 3.0          # 0.1 * 3.0 / 3.0 rounds to 0.10000000000000002
        assert 0.1 * lam / lam > 0.1
        for kappa, code in ((0.1 * lam, 0), (math.nextafter(0.1 * lam, math.inf), 2)):
            cfg = write_config(
                tmp_path, {"protocol": "cluster", "N": 3, "lambdas": lam, "kappa": kappa}
            )
            assert main(["run", "--config", cfg]) == code

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 1

    def test_protocol_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from cavity_entangler import ProtocolError
        import cavity_entangler.cli as cli_module

        def boom(protocol, n, lams, kappa, mode, convention):
            raise ProtocolError("induced failure", residual=1.0)

        monkeypatch.setattr(cli_module, "_execute", boom)
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0}
        )
        code = main(["run", "--config", cfg])
        assert code == 3
        assert "induced failure" in capsys.readouterr().err

    @pytest.mark.parametrize("error", ["NumericError", "SectorError"])
    def test_numeric_and_sector_errors_exit_3(self, tmp_path, capsys, monkeypatch, error):
        import cavity_entangler

        def boom(protocol, n, lams, kappa, mode, convention):
            raise getattr(cavity_entangler, error)("induced failure")

        monkeypatch.setattr(cli_module, "_execute", boom)
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0}
        )
        assert main(["run", "--config", cfg]) == 3
        assert "induced failure" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"protocol": "cluster", "N": 4, "lambdas": 1.0, "kappa": float("nan")},
        {"protocol": "cluster", "N": 4, "lambdas": float("nan"), "kappa": 0.01},
        {"protocol": "cluster", "N": 3, "lambdas": [1.0, float("inf"), 1.0], "kappa": 0.01},
        {"protocol": "wstate", "N": 4, "lambdas": float("nan"), "kappa": 0.0},
        # a NaN past the first coupling, and kappa, Q or nu_c infinite
        {"protocol": "cluster", "N": 3, "lambdas": [1.0, float("nan"), 1.0], "kappa": 0.5},
        {"protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": float("inf")},
        {"protocol": "cluster", "N": 3, "lambdas": 1.0, "Q": 1e7, "nu_c": float("inf")},
        {"protocol": "cluster", "N": 3, "lambdas": 1.0, "Q": float("inf"), "nu_c": 4e10},
    ])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, doc):
        code = main(["run", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert "status=ok" not in captured.out
        assert "finite" in captured.err

    def test_non_finite_result_exits_3(self, tmp_path, capsys, monkeypatch):
        # the executor's own check: the batched recursion below it is made to return NaN
        def nan_recursion(model, n, kappas):
            return [(float("nan"), 1.0)] * len(kappas)

        monkeypatch.setattr(cli_module.analytic, "cluster_fidelity_sweep", nan_recursion)
        out_csv = tmp_path / "nan.csv"
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0,
                       "sweep": {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 2}}}
        )
        code = main(["run", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 3
        assert "status=ok" not in captured.out
        assert "non-finite" in captured.err
        assert main(["sweep", "--config", cfg, "--output", str(out_csv)]) == 0
        rows = [l.split(",") for l in out_csv.read_text().splitlines()[1:]]
        assert [r[6] for r in rows] == ["error", "error"]

    def test_dump_h_capped_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the --dump-h size check")

        monkeypatch.setattr(cli_module, "_execute", no_work)
        monkeypatch.setattr(cli_module, "build_effective", no_work)
        n = MAX_DUMP_H_QUBITS + 1
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": n, "lambdas": 1.0, "kappa": 0.0}
        )
        dump = tmp_path / "h.txt"
        code = main(["run", "--config", cfg, "--dump-h", str(dump)])
        assert code == 1
        assert "--dump-h" in capsys.readouterr().err
        assert not dump.exists()

    def test_wstate_feasibility_numbers(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "protocol": "wstate",
                "N": 4,
                "lambdas": {"g": 1.8e8, "omega": 8.5e7, "delta": 1.5e9},
                "Q": 1e7,
                "nu_c": "40 GHz",
            },
        )
        code = main(["run", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        values = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(values["kappa_over_lambda"]) == pytest.approx(2.464e-3, rel=1e-3)
        kappa = kappa_from_quality(1e7, 4e10)
        t = float(values["duration"])
        assert float(values["P"]) == pytest.approx(math.exp(-kappa * t / 4), abs=1e-10)
        assert t == pytest.approx(1.26e-7, rel=0.02)

    def test_dump_state_format(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0}
        )
        dump = tmp_path / "state.txt"
        code = main(["run", "--config", cfg, "--dump-state", str(dump)])
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert len(lines) == 4
        bits, photon, re_part, im_part = lines[0].split()
        assert bits == "00" and photon == "0"
        assert float(re_part) == pytest.approx(0.5)
        # all amplitudes real +-0.5 for the two-qubit cluster
        mags = sorted(abs(float(l.split()[2])) for l in lines)
        assert mags == pytest.approx([0.5] * 4)

    def test_wstate_dump_is_the_dense_register(self, tmp_path, capsys):
        from cavity_entangler import EffectiveModel, run_w
        from cavity_entangler.statespace import state_dump_lines

        cfg = write_config(
            tmp_path, {"protocol": "wstate", "N": 5, "lambdas": [1.0, 1.2, 0.8, 1.1],
                       "kappa": 0.05}
        )
        dump = tmp_path / "state.txt"
        assert main(["run", "--config", cfg, "--dump-state", str(dump)]) == 0
        rest = (1.0, 1.2, 0.8, 1.1)
        register, _ = run_w(EffectiveModel((math.sqrt(sum(x * x for x in rest)),) + rest, 0.05), 5)
        assert dump.read_text() == "\n".join(state_dump_lines(register.to_dense())) + "\n"
        assert [line.split()[0] for line in dump.read_text().splitlines()] == [
            "0001", "0010", "0100", "1000"]

    def test_dump_state_capped_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the --dump-state size check")

        monkeypatch.setattr(cli_module, "_execute", no_work)
        monkeypatch.setattr(cli_module.analytic, "cluster_analytic", no_work)
        for protocol, n in (("wstate", 30), ("cluster", 25)):
            cfg = write_config(tmp_path, {"protocol": protocol, "N": n, "lambdas": 1.0,
                                          "kappa": 0.0})
            dump = tmp_path / "state.txt"
            code = main(["run", "--config", cfg, "--dump-state", str(dump)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error:")
            assert not dump.exists()

    @pytest.mark.parametrize("n, ratio", [(30, 0.05), (10**5, 1e-5)])
    @pytest.mark.parametrize("convention", ["normalized", "raw"])
    def test_analytic_cluster_run_matches_the_sweep_row(self, tmp_path, capsys, n, ratio,
                                                        convention):
        # above the 24-qubit dense cap too: run reports the recursion's F and P
        lam = 3.0
        out_csv = tmp_path / "row.csv"
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": n, "lambdas": lam, "kappa": ratio * lam,
            "sweep": {"kappa_over_lambda": {"start": ratio, "stop": ratio, "steps": 1}}})
        flags = ["--fidelity-convention", convention]
        assert main(["run", "--config", cfg] + flags) == 0
        values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert main(["sweep", "--config", cfg, "--output", str(out_csv)] + flags) == 0
        (row,) = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert row[6] == "ok"
        assert all(0.1 < float(v) <= 1.0 for v in row[3:5])     # .12f and .12g agree here
        assert [f"{float(values[key]):.12g}" for key in ("F", "P")] == row[3:5]

    def test_dump_hamiltonian_blocks_are_the_step_generators(self, tmp_path, capsys):
        from cavity_entangler.analytic import DRAIN, LOAD, step_params
        from cavity_entangler.hamiltonian import decay_term, exchange_term

        lams, kappa, n = (1.0, 1.3, 0.8), 0.05, 3
        cfg = write_config(tmp_path, {"protocol": "cluster", "N": n, "lambdas": list(lams),
                                      "kappa": kappa})
        dump = tmp_path / "h.txt"
        assert main(["run", "--config", cfg, "--dump-h", str(dump)]) == 0
        blocks = []
        for line in dump.read_text().splitlines():
            if line.startswith("#"):
                blocks.append((line, np.zeros((2 ** (n + 1),) * 2, dtype=complex)))
            else:
                row, col, re_part, im_part = line.split()
                blocks[-1][1][int(row), int(col)] = complex(float(re_part), float(im_part))
        assert len(blocks) == n
        for j, (header, h) in enumerate(blocks, start=1):
            step = step_params(lams[j - 1], kappa, LOAD if j < n else DRAIN)
            fmt = cli_module._fmt
            assert header == (f"# step {j} qubit {j} lambda {fmt(lams[j - 1])} "
                              f"duration {fmt(step.duration)}")
            assert np.array_equal(h, lams[j - 1] * exchange_term(n, j) + decay_term(n, kappa))

    def test_dump_hamiltonian(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.1}
        )
        dump = tmp_path / "h.txt"
        code = main(["run", "--config", cfg, "--dump-h", str(dump)])
        assert code == 0
        text = dump.read_text()
        assert text.startswith("# step 1")
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert all(len(r.split()) == 4 for r in rows)

    def test_raw_fidelity_convention(self, tmp_path, capsys):
        doc = {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.04}
        cfg = write_config(tmp_path, doc)
        main(["run", "--config", cfg])
        normalized = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        main(["run", "--config", cfg, "--fidelity-convention", "raw"])
        raw = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
        assert float(raw["F"]) == pytest.approx(
            float(normalized["F"]) * float(normalized["P"]), abs=1e-9
        )


class TestSweepCommand:
    def test_grid_rows_and_monotonicity(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        cfg = write_config(
            tmp_path,
            {
                "protocol": "cluster",
                "N": 4,
                "lambdas": 1.0,
                "kappa": 0.0,
                "mode": "analytic",
                "sweep": {
                    "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 6},
                    "N_list": [2, 3, 4],
                },
                "output": str(out_csv),
            },
        )
        code = main(["sweep", "--config", cfg])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 18
        assert all(r[6] == "ok" for r in rows)
        by_n = {}
        for r in rows:
            by_n.setdefault(int(r[1]), []).append((float(r[2]), float(r[3]), float(r[4])))
        for n, pts in by_n.items():
            fs = [f for _, f, _ in pts]
            ps = [p for _, _, p in pts]
            assert fs == sorted(fs, reverse=True)
            assert ps == sorted(ps, reverse=True)

    def test_wstate_success_probability_column(self, tmp_path, capsys):
        out_csv = tmp_path / "w.csv"
        cfg = write_config(
            tmp_path,
            {
                "protocol": "wstate",
                "N": 4,
                "lambdas": 1.0,
                "kappa": 0.0,
                "sweep": {
                    "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 6},
                    "N_list": [4],
                },
                "output": str(out_csv),
            },
        )
        from cavity_entangler import w_solve_lambda1
        code = main(["sweep", "--config", cfg])
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        for r in rows:
            ratio, p = float(r[2]), float(r[4])
            sol = w_solve_lambda1((1.0, 1.0, 1.0), ratio)
            assert p == pytest.approx(math.exp(-ratio * sol.duration / 4), abs=1e-10)

    def test_wstate_beyond_the_dense_cap(self, tmp_path, capsys):
        out_csv = tmp_path / "w.csv"
        cfg = write_config(
            tmp_path,
            {
                "protocol": "wstate",
                "N": 10,
                "lambdas": 1.0e7,
                "kappa": 0.0,
                "sweep": {
                    "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 4},
                    "N_list": [10, 30, 1000],
                },
                "output": str(out_csv),
            },
        )
        from cavity_entangler import w_solve_lambda1
        assert main(["sweep", "--config", cfg]) == 0
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        assert len(rows) == 12
        for r in rows:
            n, ratio, f, p = int(r[1]), float(r[2]), float(r[3]), float(r[4])
            assert r[6] == "ok"
            t = w_solve_lambda1((1.0e7,) * (n - 1), ratio * 1.0e7).duration
            assert f == pytest.approx(1.0, abs=1e-12)
            assert p == pytest.approx(math.exp(-ratio * 1.0e7 * t / 4), rel=1e-12)

    def test_missing_output_path_refused_before_any_row(self, tmp_path, capsys, monkeypatch):
        def no_rows(task):
            raise AssertionError("a sweep row ran before the output path check")

        monkeypatch.setattr(cli_module, "_sweep_point", no_rows)
        cfg = write_config(tmp_path, {"protocol": "cluster", "N": 3, "lambdas": 1.0,
                                      "kappa": 0.0, "sweep": {"kappa_over_lambda": _GRID}})
        assert main(["sweep", "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: no output path (config 'output' or --output)\n")

    def test_deterministic_output_modulo_runtime(self, tmp_path, capsys):
        doc = {
            "protocol": "cluster",
            "N": 3,
            "lambdas": 1.0,
            "kappa": 0.0,
            "sweep": {
                "kappa_over_lambda": {"start": 0.0, "stop": 0.08, "steps": 4},
                "N_list": [2, 3],
            },
        }
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(b)]) == 0

        def mask_runtime(path):
            rows = path.read_text().strip().splitlines()
            return [",".join(r.split(",")[:5] + r.split(",")[6:]) for r in rows]

        assert mask_runtime(a) == mask_runtime(b)

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        doc = {
            "protocol": "cluster",
            "N": 2,
            "lambdas": 1.0,
            "kappa": 0.0,
            "sweep": {
                "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 3},
                "N_list": [2],
            },
        }
        cfg = write_config(tmp_path, doc)
        a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
        assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(b), "--jobs", "2"]) == 0

        def mask_runtime(path):
            rows = path.read_text().strip().splitlines()
            return [",".join(r.split(",")[:5] + r.split(",")[6:]) for r in rows]

        assert mask_runtime(a) == mask_runtime(b)

    @staticmethod
    def batch_grids():
        rng = np.random.default_rng(20261020)
        a, b = rng.uniform(0.5, 1.5, 2).tolist()
        return {
            "equal": ([1.3] * 3000, np.linspace(0.0, 0.1, 5).tolist()),
            "distinct": (rng.uniform(0.5, 1.5, 3000).tolist(), np.linspace(0.0, 0.1, 5).tolist()),
            "period-2": ([a, b] * 1500, np.linspace(0.0, 0.1, 4).tolist()),
            # min(lambda) = 0.5: rows above 0.1 are out of regime
            "regime-crossing": ([0.5] + rng.uniform(0.5, 1.5, 2999).tolist(),
                                np.linspace(0.05, 0.2, 7).tolist()),
        }

    @pytest.mark.parametrize("grid", ["equal", "distinct", "period-2", "regime-crossing"])
    @pytest.mark.parametrize("convention", ["normalized", "raw"])
    def test_batched_rows_equal_the_per_ratio_recursion(self, grid, convention):
        from cavity_entangler import EffectiveModel, RegimeError, analytic

        lambdas, ratios = self.batch_grids()[grid]
        lambdas = np.array(lambdas)
        for n in (2, 17, 3000):
            rows = cli_module._sweep_point(
                ("cluster", n, ratios, lambdas, "analytic", convention))
            assert [row[:2] for row in rows] == [(n, r) for r in ratios]
            lams = lambdas[:n]
            lam_min = float(lams.min())
            for (_, ratio, fid, p, _, status) in rows:
                kappa = ratio * lam_min
                try:
                    f_ref, p_ref = cli_module._execute("cluster", n, lams, kappa, "analytic",
                                                       convention)[:2]
                except RegimeError:
                    assert status == "regime_error" and math.isnan(fid) and math.isnan(p)
                    continue
                f_rec, p_rec = analytic.cluster_fidelity_recursive(EffectiveModel(lams, kappa), n)
                assert status == "ok"
                assert (fid, p) == (f_ref, p_ref) == (
                    f_rec * p_rec if convention == "raw" else f_rec, p_rec)
            if grid == "regime-crossing":
                assert {row[5] for row in rows} == {"ok", "regime_error"}

    def test_an_out_of_regime_batch_is_all_regime_errors(self, tmp_path, capsys):
        out_csv = tmp_path / "far.csv"
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0,
            "sweep": {"kappa_over_lambda": {"start": 0.2, "stop": 0.3, "steps": 3},
                      "N_list": [3, 40]}})
        assert main(["sweep", "--config", cfg, "--output", str(out_csv)]) == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert [r[6] for r in rows] == ["regime_error"] * 6

    def test_factorization_error_spoils_only_its_row(self, monkeypatch):
        from cavity_entangler import analytic

        ratios = np.linspace(0.0, 0.1, 5).tolist()
        lambdas = np.full(50, 2.0)
        clean = cli_module._sweep_point(("cluster", 50, ratios, lambdas, "analytic", "normalized"))
        real = analytic._branch_coefficients
        spoiled = ratios[2] * 2.0

        def mistimed_drain(lam, kappa, duration):
            stay_q, stay_c, hop, double = real(lam, kappa, duration)
            return stay_q, (1e-3 if kappa == spoiled else stay_c), hop, double

        monkeypatch.setattr(analytic, "_branch_coefficients", mistimed_drain)
        rows = cli_module._sweep_point(("cluster", 50, ratios, lambdas, "analytic", "normalized"))
        assert [row[5] for row in rows] == ["ok", "ok", "convergence_error", "ok", "ok"]
        assert math.isnan(rows[2][2]) and math.isnan(rows[2][3])
        assert [row[2:4] for k, row in enumerate(rows) if k != 2] == [
            row[2:4] for k, row in enumerate(clean) if k != 2]

    def test_pool_tasks_are_chunks_of_one_n(self, tmp_path, capsys, monkeypatch):
        tasks = []

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                tasks.extend(items)
                return map(fn, items)

        monkeypatch.setattr(cli_module.concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
        out_csv = tmp_path / "j.csv"
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0,
            "sweep": {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 5},
                      "N_list": [2, 9]}})
        assert main(["sweep", "--config", cfg, "--output", str(out_csv), "--jobs", "2"]) == 0
        ratios = np.linspace(0.0, 0.1, 5).tolist()
        assert [(task[1], task[2]) for task in tasks] == [
            (2, ratios[:3]), (2, ratios[3:]), (9, ratios[:3]), (9, ratios[3:])]
        assert len(out_csv.read_text().splitlines()) == 11

    def test_numeric_rows_never_run_the_batched_recursion(self, tmp_path, capsys, monkeypatch):
        from cavity_entangler import analytic

        def forbidden(*args, **kwargs):
            raise AssertionError("numeric sweep row ran the analytic recursion")

        monkeypatch.setattr(analytic, "cluster_fidelity_sweep", forbidden)
        out_csv = tmp_path / "numeric.csv"
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": 3, "lambdas": 1.0, "kappa": 0.0, "mode": "numeric",
            "sweep": {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 2}}})
        assert main(["sweep", "--config", cfg, "--output", str(out_csv)]) == 0
        assert out_csv.read_text().count(",ok\n") == 2

    def test_numeric_rows_never_run_the_recursion(self, tmp_path, capsys, monkeypatch):
        from cavity_entangler import EffectiveModel, analytic, run_cluster

        def forbidden(*args, **kwargs):
            raise AssertionError("numeric sweep row ran the analytic recursion")

        out_csv = tmp_path / "numeric.csv"
        doc = {
            "protocol": "cluster",
            "N": 4,
            "lambdas": 1.0,
            "kappa": 0.0,
            "mode": "numeric",
            "sweep": {
                "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 3},
                "N_list": [3, 4, 30],
            },
            "output": str(out_csv),
        }
        monkeypatch.setattr(analytic, "cluster_fidelity_sweep", forbidden)
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        assert len(rows) == 9
        for r in rows:
            n, ratio = int(r[1]), float(r[2])
            if n == 30:
                assert r[3:5] == ["nan", "nan"] and r[6] == "error"
                continue
            _, report = run_cluster(EffectiveModel((1.0,) * n, ratio), n, "numeric")
            assert r[6] == "ok"
            assert r[3:5] == [cli_module._fmt(report.fidelity),
                              cli_module._fmt(report.success_probability)]

    def test_non_finite_input_rows_are_errors(self, tmp_path, capsys):
        # a non-finite coupling or kappa is a config error: no row is written
        out_csv = tmp_path / "nan.csv"
        for bad in ({"lambdas": float("nan")}, {"kappa": float("nan")}):
            doc = {
                "protocol": "cluster",
                "N": 2,
                "lambdas": 1.0,
                "kappa": 0.0,
                "sweep": {
                    "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 2},
                    "N_list": [2, 40],
                },
                "output": str(out_csv),
            } | bad
            assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 1
            assert "finite" in capsys.readouterr().err
            assert not out_csv.exists()

    @staticmethod
    def recording_pool(monkeypatch, cpu_count):
        created = []

        class RecordingPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli_module.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli_module.os, "cpu_count", lambda: cpu_count)
        return created

    def sweep_with_jobs(self, tmp_path, jobs, steps):
        doc = {
            "protocol": "cluster",
            "N": 2,
            "lambdas": 1.0,
            "kappa": 0.0,
            "sweep": {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": steps}},
        }
        cfg = write_config(tmp_path, doc)
        return main(["sweep", "--config", cfg, "--output", str(tmp_path / "j.csv"),
                     "--jobs", str(jobs)])

    @pytest.mark.parametrize("jobs, cpus, steps, workers", [
        (64, 4, 8, [4]),        # capped at the CPU count
        (64, 16, 3, [3]),       # capped at the task count
        (2, 16, 8, [2]),        # as asked
        (64, None, 8, []),      # unknown CPU count: serial, no pool
        (1, 16, 8, []),         # serial, no pool
    ])
    def test_jobs_capped(self, tmp_path, capsys, monkeypatch, jobs, cpus, steps, workers):
        created = self.recording_pool(monkeypatch, cpus)
        assert self.sweep_with_jobs(tmp_path, jobs, steps) == 0
        assert created == workers
        assert "rows=%d" % steps in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, monkeypatch, jobs):
        created = self.recording_pool(monkeypatch, 4)
        assert self.sweep_with_jobs(tmp_path, jobs, 3) == 1
        assert "--jobs" in capsys.readouterr().err
        assert created == []
        assert not (tmp_path / "j.csv").exists()

    def test_out_of_regime_points_recorded_not_fatal(self, tmp_path, capsys):
        out_csv = tmp_path / "far.csv"
        cfg = write_config(
            tmp_path,
            {
                "protocol": "cluster",
                "N": 2,
                "lambdas": 1.0,
                "kappa": 0.0,
                "sweep": {
                    "kappa_over_lambda": {"start": 0.05, "stop": 0.2, "steps": 4},
                    "N_list": [2],
                },
                "output": str(out_csv),
            },
        )
        code = main(["sweep", "--config", cfg])
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        statuses = [r[6] for r in rows]
        assert statuses.count("regime_error") == 2
        assert statuses.count("ok") == 2

    def test_regime_edge_rows_follow_the_run_rule(self, tmp_path, capsys):
        # nextafter(0.1, 1) * 3 rounds to 0.1 * 3, a decay rate run accepts
        lam, top = 3.0, math.nextafter(0.1, 1.0)
        assert top * lam == 0.1 * lam
        out_csv = tmp_path / "edge.csv"
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": 3, "lambdas": lam, "kappa": 0.1 * lam,
            "sweep": {"kappa_over_lambda": {"start": 0.1, "stop": top, "steps": 2}}})
        assert main(["run", "--config", cfg]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(out_csv)]) == 0
        rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
        assert [r[6] for r in rows] == ["ok", "ok"]
        assert rows[0][3:5] == rows[1][3:5]

    def test_gnuplot_companion_script(self, tmp_path, capsys):
        out_csv = tmp_path / "plot.csv"
        script = tmp_path / "plot.gp"
        cfg = write_config(
            tmp_path,
            {
                "protocol": "cluster",
                "N": 2,
                "lambdas": 1.0,
                "kappa": 0.0,
                "sweep": {
                    "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 3},
                    "N_list": [2, 3],
                },
                "output": str(out_csv),
            },
        )
        code = main(["sweep", "--config", cfg, "--gnuplot", str(script)])
        assert code == 0
        text = script.read_text()
        assert str(out_csv) in text
        assert '"F, N=2"' in text and '"P, N=3"' in text

    def test_empty_grid_exits_1(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "protocol": "cluster",
                "N": 2,
                "lambdas": 1.0,
                "kappa": 0.0,
                "sweep": {"kappa_over_lambda": {"start": 0, "stop": 0.1, "steps": 0}},
            },
        )
        assert main(["sweep", "--config", cfg]) == 1

    def test_oversized_grid_exits_1_before_any_allocation(self, tmp_path, capsys, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the sweep grid was built")

        monkeypatch.setattr(cli_module.np, "linspace", no_grid)
        grid = {"start": 0.0, "stop": 0.1, "steps": cli_module.MAX_SWEEP_ROWS // 2 + 1}
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0,
            "sweep": {"kappa_over_lambda": grid, "N_list": [2, 3]}})
        assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "big.csv")]) == 1
        assert "rows" in capsys.readouterr().err
        grid["steps"] = 10**15
        cfg = write_config(tmp_path, {
            "protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0,
            "sweep": {"kappa_over_lambda": grid}})
        assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "big.csv")]) == 1
        assert not (tmp_path / "big.csv").exists()

    def test_large_register_uses_recursion(self, tmp_path, capsys):
        out_csv = tmp_path / "big.csv"
        cfg = write_config(
            tmp_path,
            {
                "protocol": "cluster",
                "N": 32,
                "lambdas": 1.0,
                "kappa": 0.0,
                "sweep": {
                    "kappa_over_lambda": {"start": 0.02, "stop": 0.1, "steps": 3},
                    "N_list": [32, 64],
                },
                "output": str(out_csv),
            },
        )
        code = main(["sweep", "--config", cfg])
        assert code == 0
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        assert len(rows) == 6
        assert all(r[6] == "ok" for r in rows)
        assert all(0 < float(r[3]) < 1 for r in rows)


class TestValidateCommand:
    def test_defaults_pass(self, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validate=pass" in out
        assert out.count("status=pass") == 5
        assert "lambda_effective=1.02e+07" in out

    def test_out_of_regime_three_level_flagged_not_failed(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "protocol": "cluster",
                "N": 2,
                "lambdas": 1.0,
                "kappa": 0.0,
                "three_level": {"g": 1.0, "omega": 1.0, "delta": 2.0},
            },
        )
        with pytest.warns(RegimeWarning, match=r"max\(g, Omega\)/delta"):
            code = main(["validate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "check=three_level status=flagged" in out
        assert "validate=pass" in out

    def test_transfer_fidelity_degrades_out_of_regime(self):
        good = three_level_transfer_fidelity(1.0, 1.0, 10.0)
        bad = three_level_transfer_fidelity(1.0, 1.0, 2.0)
        assert good >= 0.99
        assert bad < 0.9


class TestNoRegimeWarningReachesTheCli:
    """Every model the CLI builds is inside the regime, so nothing warns; the
    one warning left is the flagged three-level check of ``validate``
    (``test_out_of_regime_three_level_flagged_not_failed``)."""

    @pytest.mark.parametrize("protocol", ["cluster", "wstate"])
    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_run_with_dumps(self, tmp_path, capsys, protocol, mode):
        lam = 3.0          # 0.1 * 3.0 / 3.0 rounds to 0.10000000000000002
        cfg = write_config(tmp_path, {"protocol": protocol, "N": 4, "lambdas": lam,
                                      "kappa": 0.1 * lam, "mode": mode})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            assert main(["run", "--config", cfg, "--dump-state", str(tmp_path / "s.txt"),
                         "--dump-h", str(tmp_path / "h.txt")]) == 0

    @pytest.mark.parametrize("protocol", ["cluster", "wstate"])
    @pytest.mark.parametrize("lam", [3.0, 0.7, 1e7])
    def test_sweep_up_to_the_edge(self, tmp_path, capsys, protocol, lam):
        cfg = write_config(tmp_path, {
            "protocol": protocol, "N": 4, "lambdas": lam, "kappa": 0.0,
            "sweep": {"kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 5},
                      "N_list": [3, 4, 30]}})
        out_csv = tmp_path / "sweep.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            assert main(["sweep", "--config", cfg, "--output", str(out_csv)]) == 0
        assert all(line.endswith(",ok") for line in out_csv.read_text().splitlines()[1:])

    def test_validate_defaults(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            assert main(["validate"]) == 0
