"""The package's public names: each module's ``__all__``, and nothing at the root."""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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

    @staticmethod
    def _loaded_by(module: str) -> str:
        """The sorted list of crosswatch modules a fresh interpreter holds after importing ``module``, printed."""
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('crosswatch.')))"
        env = {**os.environ, "PYTHONPATH": str(Path(crosswatch.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
        return out.strip()

    def test_simulator_imports_only_the_model(self):
        # the battery's independent oracle shares no code with the analytic layers
        assert self._loaded_by("crosswatch.montecarlo") == str(["crosswatch.errors", "crosswatch.model",
                                                                "crosswatch.montecarlo"])

    def test_series_engine_imports_no_pointwise_oracle(self):
        # the battery's pointwise blocks in transforms check the series engine, so it may not lean on them
        assert self._loaded_by("crosswatch.fluctuation") == str(["crosswatch.errors", "crosswatch.fluctuation",
                                                                 "crosswatch.model", "crosswatch.series"])

    def test_time_domain_imports_no_pointwise_oracle(self):
        # the survival laws are checked against closedform, transforms and laplace, so they may not lean on them
        assert self._loaded_by("crosswatch.timedomain") == str(["crosswatch.errors", "crosswatch.fluctuation",
                                                                "crosswatch.model", "crosswatch.series",
                                                                "crosswatch.timedomain"])

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
