import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from rtadapt import adapt, cli, problem, solver
from rtadapt.cli import (ConfigError, RunConfig, main, parse_config,
                         parse_config_text)
from rtadapt.estimators import EstimatorBreakdown
from rtadapt.mesh import Triangulation


class TestParseConfig:
    def test_kellogg1_defaults(self):
        config = parse_config({"benchmark": "kellogg1"})
        assert config.theta == 0.7
        assert config.policy == "xi"
        assert config.scheme == "centered"

    def test_kellogg2_defaults(self):
        config = parse_config({"benchmark": "kellogg2"})
        assert config.theta == 0.94
        assert config.policy == "xi"

    def test_lshape_defaults(self):
        config = parse_config({"benchmark": "lshape"})
        assert config.theta == 0.5
        assert config.scheme == "centered"
        assert config.policy == "theorem"

    def test_layer_defaults(self):
        config = parse_config({"benchmark": "layer"})
        assert config.scheme == "upwind"
        assert config.theta == 0.5

    def test_theta_range_check(self):
        with pytest.raises(ConfigError):
            parse_config({"benchmark": "lshape", "theta": 1.5})

    def test_missing_benchmark(self):
        with pytest.raises(ConfigError):
            parse_config({})

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"benchmark": "stokes"})
        assert "stokes" in str(err.value)

    def test_eps_conflicts_outside_layer(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"benchmark": "lshape", "eps": 0.1})
        assert "eps" in str(err.value)

    def test_flag_overrides(self):
        config = parse_config({"benchmark": "kellogg1", "theta": 0.3,
                               "mode": "uniform"})
        assert config.theta == 0.3
        assert config.mode == "uniform"

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("benchmark=layer\neps=0.01  # comment\na=0.02\n")
        config = parse_config({}, config_file=str(path))
        assert config.benchmark == "layer"
        assert config.params == {"eps": 0.01, "a": 0.02}

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("benchmark=layer\ntheta=0.9\n")
        config = parse_config({"theta": 0.4}, config_file=str(path))
        assert config.theta == 0.4

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("benchmark layer")
        assert "line 1" in str(err.value)

    def test_malformed_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("benchmark=layer\nmax_dof=ten\n")
        with pytest.raises(ConfigError) as err:
            parse_config({}, config_file=str(path))
        assert "max_dof" in str(err.value)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("benchmark=layer\nspeed=11\n")
        with pytest.raises(ConfigError) as err:
            parse_config({}, config_file=str(path))
        assert "speed" in str(err.value)

    def test_non_finite_parameter_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("benchmark=layer\neps=nan\n")
        with pytest.raises(ConfigError, match="outside"):
            parse_config({}, config_file=str(path))

    def test_render_parse_round_trip(self, tmp_path):
        config = parse_config({"benchmark": "layer", "eps": 0.004,
                               "theta": 0.6, "max_iter": 7})
        path = tmp_path / "cfg.txt"
        path.write_text(config.render())
        again = parse_config({}, config_file=str(path))
        assert again == config

    @pytest.mark.parametrize("key", ["benchmark", "scheme", "policy", "mode"])
    def test_file_value_outside_the_choices(self, tmp_path, key):
        entries = {"benchmark": "lshape", key: "sideways"}
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
        with pytest.raises(ConfigError, match=f"unknown {key} 'sideways'"):
            parse_config({}, config_file=str(path))

    def test_defaults_cover_the_declared_benchmarks(self):
        assert set(cli.BENCHMARK_DEFAULTS) == set(problem.BENCHMARKS)


# (golden file under tests/data/history, CLI arguments): small versions of
# the five studies whose artifacts are compared in full between versions
GOLDEN_STUDIES = [
    ("kellogg1-xi", ["--benchmark", "kellogg1", "--policy", "xi",
                     "--theta", "0.7", "--max-dof", "1200"]),
    ("layer-upwind", ["--benchmark", "layer", "--scheme", "upwind",
                      "--eps", "1e-3", "--max-dof", "1200"]),
    ("lshape-uniform", ["--benchmark", "lshape", "--mode", "uniform",
                        "--max-dof", "1536"]),
    ("kellogg2-xi", ["--benchmark", "kellogg2", "--policy", "xi",
                     "--theta", "0.94", "--max-dof", "1200",
                     "--max-iter", "100"]),
    ("layer-centered", ["--benchmark", "layer", "--scheme", "centered",
                        "--max-dof", "1200", "--max-iter", "100"]),
]


@pytest.mark.parametrize("name, args", GOLDEN_STUDIES,
                         ids=[name for name, _ in GOLDEN_STUDIES])
def test_history_matches_golden_file(tmp_path, name, args):
    """The same iterations and element counts as the recorded history, and
    every other column within 1e-10 relative (nan where it was nan)."""
    assert main(["run", *args, "--out", str(tmp_path)]) == 0
    golden = (Path(__file__).parent / "data" / "history" / f"{name}.csv"
              ).read_text().splitlines()
    history = (tmp_path / "history.csv").read_text().splitlines()
    assert history[:2] == golden[:2]
    assert len(history) == len(golden)
    got, want = (np.array([line.split(",") for line in lines[2:]])
                 for lines in (history, golden))
    assert np.array_equal(got[:, :2], want[:, :2])
    assert np.allclose(got[:, 2:].astype(float), want[:, 2:].astype(float),
                       rtol=1e-10, atol=0.0, equal_nan=True)


def test_family_columns_follow_the_breakdown_fields(tmp_path):
    """The record totals, history.csv and estimators.csv list the estimator
    families in the field order of EstimatorBreakdown; the history writes
    the last one, the marking indicator, as its eta column."""
    names = [f.name for f in dataclasses.fields(EstimatorBreakdown)]
    domain, data, exact = problem.benchmark("layer")
    result = adapt.adaptive_loop(data, data.initial_mesh(domain),
                                 scheme="upwind", max_iter=2, exact=exact)
    cli.write_history(result.records, tmp_path / "history.csv",
                      adapt.ADAPTIVE)
    header, *rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
    assert header.split(",")[3:-3] == ["eta"] + names[:-1]
    for record, row in zip(result.records, rows, strict=True):
        assert list(record.totals) == names
        assert [float(v) for v in row.split(",")[3:-3]] \
            == [record.totals[name] for name in names[-1:] + names[:-1]]
    assert result.breakdown.to_csv().split("\n", 1)[0] \
        == ",".join(["element_id"] + names)


def test_history_text(tmp_path):
    """Byte for byte: integer k and dof, then every value in ``%.17g``,
    nan, inf and -0 included, and the rates and effectivities that the
    history derives from E and eta."""
    names = [f.name for f in dataclasses.fields(EstimatorBreakdown)]
    rows = [(0, 6, 0.5, [0.1, -0.0, math.nan, math.inf, 0.0, 1e-300, 0.25]),
            (1, 24, 0.125, [1 / 3, 2.0**-1074, -math.inf, 123456789.0,
                            -0.0, math.nan, 0.0])]
    records = [adapt.RunRecord(k, dof, error, dict(zip(names, totals)), 0.0)
               for k, dof, error, totals in rows]
    cli.write_history(records, tmp_path / "history.csv", adapt.ADAPTIVE)
    assert (tmp_path / "history.csv").read_text() == "\n".join([
        cli.CSV_COMMENT[adapt.ADAPTIVE], cli.CSV_HEADER,
        "0,6,0.5,0.25,0.10000000000000001,-0,nan,inf,0,1e-300,nan,nan,0.5",
        "1,24,0.125,0,0.33333333333333331,4.9406564584124654e-324,-inf,"
        "123456789,-0,nan,1,nan,0",
    ]) + "\n"


# a small layer study, which writes all five artifacts
LAYER_RUN = ["--benchmark", "layer", "--eps", "0.1", "--a", "0.1",
             "--max-iter", "3"]


class TestRun:
    def test_lshape_tiny_run_artifacts(self, tmp_path):
        rc = main(["run", "--benchmark", "lshape", "--max-iter", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0].startswith("#")
        assert history[1] == cli.CSV_HEADER
        rows = [line.split(",") for line in history[2:]]
        assert len(rows) == 3
        assert rows[0][10] == "nan"  # no rate on the first record
        dofs = [int(r[1]) for r in rows]
        assert dofs[0] == 6 and dofs[2] > dofs[1] > dofs[0]
        mesh = Triangulation.parse((tmp_path / "mesh_final.txt").read_text())
        assert mesh.num_elements == dofs[-1]
        svg = (tmp_path / "mesh_final.svg").read_text()
        assert svg.startswith("<svg")
        est = (tmp_path / "estimators.csv").read_text().splitlines()
        assert len(est) == dofs[-1] + 1

    def test_uniform_mode_rows_quadruple(self, tmp_path):
        """One row per halving of h, under a comment line that names the
        uniform refinement instead of the Dörfler marking."""
        rc = main(["run", "--benchmark", "lshape", "--mode", "uniform",
                   "--max-iter", "4", "--out", str(tmp_path)])
        assert rc == 0
        comment, _, *rows = (tmp_path / "history.csv").read_text() \
            .splitlines()
        assert comment == "# refinement=uniform, every element bisected " \
            "twice per step"
        dofs = [int(r.split(",")[1]) for r in rows]
        assert dofs == [6, 24, 96, 384]

    def test_layer_writes_nodal_csv(self, tmp_path):
        rc = main(["run", "--benchmark", "layer", "--eps", "0.1",
                   "--a", "0.1", "--max-iter", "2", "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "ptilde_nodal.csv").read_text().splitlines()
        assert rows[0] == "vertex,value"
        mesh = Triangulation.parse((tmp_path / "mesh_final.txt").read_text())
        assert len(rows) == mesh.num_vertices + 1
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(np.isfinite(values))

    def test_heap_released_once_before_the_writers(self, tmp_path,
                                                   monkeypatch):
        """One release per solve, and one more after the loop returns and
        before history.csv is written."""
        events = []
        loop, release = adapt.adaptive_loop, solver.release_heap
        write = cli.write_history

        def finished_loop(*args, **kwargs):
            result = loop(*args, **kwargs)
            events.append("loop")
            return result

        def recorded(name, call):
            def wrapper(*args, **kwargs):
                events.append(name)
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(adapt, "adaptive_loop", finished_loop)
        monkeypatch.setattr(solver, "release_heap",
                            recorded("release", release))
        monkeypatch.setattr(cli, "write_history", recorded("write", write))
        assert main(["run", *LAYER_RUN, "--out", str(tmp_path)]) == 0
        solves = len((tmp_path / "history.csv").read_text().splitlines()) - 2
        assert events[:solves + 1] == ["release"] * solves + ["loop"]
        assert events[solves + 1:] == ["release", "write"]

    def test_artifacts_do_not_depend_on_the_heap_release(self, tmp_path,
                                                         monkeypatch):
        """Without glibc's malloc_trim the release is a no-op, and every
        artifact but config.txt (which names the output directory) is
        byte for byte that of a run with it."""
        assert main(["run", *LAYER_RUN, "--out", str(tmp_path / "a")]) == 0
        monkeypatch.setattr(solver, "_malloc_trim", None)
        assert main(["run", *LAYER_RUN, "--out", str(tmp_path / "b")]) == 0
        for name in ("history.csv", "mesh_final.txt", "mesh_final.svg",
                     "estimators.csv", "ptilde_nodal.csv"):
            assert (tmp_path / "b" / name).read_bytes() \
                == (tmp_path / "a" / name).read_bytes()

    @pytest.mark.parametrize("case", list(problem.BENCHMARKS))
    def test_config_file_reruns_the_study(self, tmp_path, case):
        """A run's config.txt, given back through --config, runs the same
        study: it names only the parameters its benchmark takes."""
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["run", "--benchmark", case, "--max-iter", "2",
                     "--out", str(first)]) == 0
        assert main(["run", "--config", str(first / "config.txt"),
                     "--out", str(again)]) == 0
        assert (again / "history.csv").read_bytes() \
            == (first / "history.csv").read_bytes()

    def test_bad_flag_exit_code(self, tmp_path):
        rc = main(["run", "--benchmark", "lshape", "--theta", "1.5",
                   "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [("--eps", "nan"),
                                             ("--eps", "inf"),
                                             ("--a", "nan")])
    def test_non_finite_parameter_exit_code(self, tmp_path, capsys, flag,
                                            value):
        rc = main(["run", "--benchmark", "layer", flag, value,
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_out_naming_a_file(self, tmp_path, capsys):
        target = tmp_path / "history.csv"
        target.write_text("")
        rc = main(["run", "--benchmark", "lshape", "--max-iter", "1",
                   "--out", str(target)])
        assert rc == 2
        assert f"configuration error: --out {target}" \
            in capsys.readouterr().err

    def test_history_numbers_have_full_precision(self, tmp_path):
        main(["run", "--benchmark", "lshape", "--max-iter", "2",
              "--out", str(tmp_path)])
        row = (tmp_path / "history.csv").read_text().splitlines()[2]
        value = row.split(",")[2]
        assert len(value.split(".")[-1]) >= 15

    def test_mesh_subcommand(self, tmp_path):
        rc = main(["mesh", "--domain", "unit-square", "--refinements", "2",
                   "--out", str(tmp_path)])
        assert rc == 0
        mesh = Triangulation.parse((tmp_path / "mesh.txt").read_text())
        assert mesh.num_elements == 32
        assert (tmp_path / "mesh.svg").read_text().startswith("<svg")
