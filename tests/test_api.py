"""The package's public names (each module's ``__all__``, and nothing at the root) and what a start loads."""

import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest
from conftest import fresh_cli, fresh_interpreter

import crosswatch
from crosswatch import cli, closedform, fluctuation, model, montecarlo, series, transforms, validation

MODULES = [info.name for info in pkgutil.iter_modules(crosswatch.__path__)]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestPublicApi:
    def test_every_export_resolves(self):
        for name in MODULES:
            module = importlib.import_module(f"crosswatch.{name}")
            for attr in getattr(module, "__all__", ()):
                assert hasattr(module, attr), f"{name}.{attr}"

    def test_package_root_reexports_nothing(self):
        assert not hasattr(crosswatch, "__all__")
        public = {name for name in vars(crosswatch) if not name.startswith("_")}
        # importing a submodule binds it on the package, and nothing else may appear
        assert public <= set(MODULES), public - set(MODULES)

    def test_removed_names_stay_unexported(self):
        removed = {
            model: ("GeneralNonneg", "obs_lst"),
            fluctuation: ("BlockValues", "blocks_at"),
            series: ("TruncatedSeries", "d_op_indicator"),
            closedform: ("SpecialModel", "crossing_level_pmf", "JointDistTable", "f_of", "reg_gamma_p",
                         "coeff_g", "coeff_h", "joint_dist"),
            montecarlo: ("estimate_functional", "estimate_f1_star", "estimate_f2_star", "JointEstimate",
                         "estimate_functionals"),
            validation: ("ANALYTIC_OPS", "CLOSED_FORM_OPS"),
            transforms: ("psi", "ConvolutionSpec", "gamma_is_contractive"),
        }
        for module, names in removed.items():
            for name in names:
                assert name not in module.__all__
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_benchmark_tracer_wraps_and_restores(self, tmp_path, capsys):
        # the benchmark's tracer wraps every layer's __all__ (and fails on a
        # missing EXTRA name), so a cut to a public list must keep it working
        spec = importlib.util.spec_from_file_location("crosswatch_bench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        config = tmp_path / "functional.json"
        model = {"lambda": 1.0, "marks": {"geometric": {"a": 0.5}},
                 "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 3}
        config.write_text(json.dumps({"schema_version": 1, "model": model, "args": {"theta": 1.0}}))
        original = fluctuation.g1_star
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert fluctuation.g1_star is not original
            assert cli.main(["functional", "--config", str(config)]) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        assert "model.load_model" in {span.name for span in tracer.spans}
        assert fluctuation.g1_star is original


GEOMETRIC = {"lambda": 1.0, "marks": {"geometric": {"a": 0.5}}, "obs": {"mu": 1.0, "initial": "zero"}, "threshold": 3}
CLI = {"cli", "errors", "model"}
SURVIVAL_LAWS = {"timedomain", "fluctuation", "series"}


# The battery's simulator shares no code with the analytic layers; the series engine and
# the survival laws lean on none of the pointwise oracles (transforms, laplace, closedform)
# that check them; and a command loads only the layers it runs.
@pytest.mark.parametrize("start, keys, code, err, loads", [
    pytest.param("crosswatch.montecarlo", None, 0, "", {"errors", "model", "montecarlo"}, id="montecarlo"),
    pytest.param("crosswatch.fluctuation", None, 0, "", {"errors", "fluctuation", "model", "series"},
                 id="fluctuation"),
    pytest.param("crosswatch.timedomain", None, 0, "", {"errors", "model"} | SURVIVAL_LAWS, id="timedomain"),
    pytest.param("--help", None, 0, "", CLI, id="help"),
    pytest.param("predict", {"horizon": 1.0, "n_paths": 1_000}, 64,
                 "error: unknown config key(s) ['n_paths'] in config for command 'predict'\n", CLI,
                 id="usage-error"),
    pytest.param("dist", {"t_grid": [0.0, 1.0], "r_max": 5}, 0, "", CLI | SURVIVAL_LAWS | {"closedform"},
                 id="dist"),
    pytest.param("survival", {"t_grid": [0.0, 1.0]}, 0, "", CLI | SURVIVAL_LAWS, id="survival"),
    pytest.param("predict", {"horizon": 1.0, "t_steps": 3}, 0, "", CLI | SURVIVAL_LAWS, id="predict"),
    pytest.param("functional", {"args": {"theta": 1.0}}, 0, "", CLI | {"fluctuation", "series"}, id="functional"),
    pytest.param("simulate", {"n_paths": 1_000}, 0, "", CLI | {"montecarlo"}, id="simulate"),
    pytest.param("validate", {"n_paths": 10_000}, 0, "", set(MODULES), id="validate"),
])
def test_a_fresh_start_loads_only_what_it_runs(tmp_path, start, keys, code, err, loads):
    if start.startswith("crosswatch."):
        run = fresh_interpreter(f"import {start}")
    elif keys is None:
        run = fresh_cli(start)
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schema_version": 1, "model": GEOMETRIC, **keys}))
        run = fresh_cli(start, "--config", str(config))
    assert (run.returncode, run.err) == (code, err)
    assert run.modules == {"crosswatch"} | {f"crosswatch.{name}" for name in loads}
