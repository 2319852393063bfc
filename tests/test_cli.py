import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cavity_entangler.cli as cli_module
from cavity_entangler import ArgumentError, kappa_from_quality
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
        assert cfg.lambdas == (pytest.approx(1.02e7),) * 2

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
        assert cfg.n == 4 and cfg.lambdas == (1.0,) * 4

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
        code = main([command, "--config", cfg, "--output", str(tmp_path / "out.csv")])
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

    def test_regime_violation_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.5}
        )
        code = main(["run", "--config", cfg])
        err = capsys.readouterr().err
        assert code == 2
        assert "0.1" in err

    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 1

    def test_protocol_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        from cavity_entangler import ProtocolError
        import cavity_entangler.cli as cli_module

        def boom(config, n, kappa):
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

        def boom(config, n, kappa):
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
    ])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, doc):
        code = main(["run", "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code == 1
        assert "status=ok" not in captured.out
        assert "finite" in captured.err

    def test_non_finite_result_exits_3(self, tmp_path, capsys, monkeypatch):
        from cavity_entangler import RunReport, ideal_cluster

        def nan_report(config, n, kappa):
            return ideal_cluster(n), RunReport(float("nan"), 1.0, (), "analytic", 0.0)

        monkeypatch.setattr(cli_module, "_execute", nan_report)
        cfg = write_config(
            tmp_path, {"protocol": "cluster", "N": 2, "lambdas": 1.0, "kappa": 0.0}
        )
        code = main(["run", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 3
        assert "status=ok" not in captured.out
        assert "non-finite" in captured.err

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

    def test_non_finite_input_rows_are_errors(self, tmp_path, capsys):
        out_csv = tmp_path / "nan.csv"
        doc = {
            "protocol": "cluster",
            "N": 2,
            "lambdas": float("nan"),
            "kappa": 0.0,
            "sweep": {
                "kappa_over_lambda": {"start": 0.0, "stop": 0.1, "steps": 2},
                "N_list": [2, 40],
            },
            "output": str(out_csv),
        }
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        rows = [l.split(",") for l in out_csv.read_text().strip().splitlines()[1:]]
        assert len(rows) == 4
        assert all(r[6] == "error" for r in rows)

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
