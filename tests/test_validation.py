"""Self-validation battery: report schema, coverage, and the perturbation control."""

from __future__ import annotations

import importlib
import inspect
import json
import math

import pytest
from conftest import geometric_model

from crosswatch import closedform, timedomain, transforms, validation
from crosswatch.closedform import _family
from crosswatch.errors import DomainError, TableInvariantError
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
)
from crosswatch.validation import run_battery

ALL_CHECKS = [
    "contraction-bound",
    "coverage-complete",
    "crossing-index-vs-mc",
    "crossing-series-path-agreement",
    "dist-table-invariants",
    "functional-vs-mc",
    "gamma-cdf-identity",
    "gh-coefficient-limits",
    "increment-pgf-quadrature",
    "increment-transform-vs-mc",
    "inversion-roundtrip-known-pairs",
    "mc-joint-agreement",
    "overshoot-pmf-vs-mc",
    "partition-identity",
    "pgf-extraction-consistency",
    "series-extraction-roundtrip",
    "survival-vs-mc",
    "time-domain-inversion-agreement",
    "time-domain-law-agreement",
    "transform-chain-agreement",
    "window-tiling-identity",
    "window-transforms-vs-mc",
]

# Checks that require the two-parameter family and sit out for general models.
CLOSED_FORM_ONLY = {
    "dist-table-invariants",
    "gh-coefficient-limits",
    "mc-joint-agreement",
    "pgf-extraction-consistency",
    "time-domain-inversion-agreement",
    "transform-chain-agreement",
}

CHECK_KEYS = {
    "name",
    "passed",
    "skipped",
    "observed",
    "tolerance",
    "margin",
    "covers",
    "detail",
}


@pytest.fixture(scope="module")
def std_report(std_model):
    return run_battery(std_model, seed=0, n_paths=20_000)


class TestReportSchema:
    def test_top_level_keys(self, std_report):
        assert std_report["schema_version"] == 1
        for key in ("seed", "c_shift", "n_paths", "model", "checks", "coverage",
                    "failed_checks", "all_passed"):
            assert key in std_report
        assert std_report["seed"] == 0
        assert std_report["c_shift"] == 0.0
        assert std_report["n_paths"] == 20_000

    def test_checks_sorted_and_complete(self, std_report):
        names = [c["name"] for c in std_report["checks"]]
        assert names == sorted(names)
        assert names == ALL_CHECKS

    def test_check_entries_have_uniform_shape(self, std_report):
        for check in std_report["checks"]:
            assert set(check) == CHECK_KEYS, check["name"]
            assert isinstance(check["passed"], bool)
            assert isinstance(check["skipped"], bool)
            assert isinstance(check["covers"], list)

    def test_report_is_json_serializable(self, std_report):
        text = json.dumps(std_report)
        assert json.loads(text) == std_report

    def test_coverage_keys(self, std_report):
        cov = std_report["coverage"]
        assert set(cov) == {"required", "covered", "missing"}
        assert cov["missing"] == []
        assert set(cov["covered"]) >= set(cov["required"])


class TestStandardModelPasses:
    def test_all_passed(self, std_report):
        assert std_report["all_passed"] is True
        assert std_report["failed_checks"] == []

    def test_nothing_skipped_for_special_family(self, std_report):
        assert all(not c["skipped"] for c in std_report["checks"])

    def test_margins_nonnegative_for_passing_checks(self, std_report):
        for check in std_report["checks"]:
            assert check["margin"] >= 0.0, check["name"]

    def test_observed_within_tolerance(self, std_report):
        for check in std_report["checks"]:
            assert check["observed"] <= check["tolerance"], check["name"]


class TestDeterminism:
    def test_same_seed_reproduces_byte_identical_report(self, std_model):
        a = run_battery(std_model, seed=5, n_paths=5_000)
        b = run_battery(std_model, seed=5, n_paths=5_000)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_sampled_observations(self, std_model):
        a = run_battery(std_model, seed=5, n_paths=5_000)
        b = run_battery(std_model, seed=6, n_paths=5_000)
        obs_a = {c["name"]: c["observed"] for c in a["checks"]}
        obs_b = {c["name"]: c["observed"] for c in b["checks"]}
        assert obs_a["survival-vs-mc"] != obs_b["survival-vs-mc"]


class TestPerturbationControl:
    def test_c_shift_fails_exactly_the_inversion_check(self, std_model):
        # the shifted c reaches the G_j/H_j time-domain formula, so the two
        # checks that hold it against an independent route fail: numeric
        # inversion of the transform, and the factorised joint table
        report = run_battery(std_model, seed=0, c_shift=1e-3, n_paths=20_000)
        assert report["all_passed"] is False
        assert report["failed_checks"] == [
            "pgf-extraction-consistency", "time-domain-inversion-agreement"
        ]
        failed = next(c for c in report["checks"]
                      if c["name"] == "time-domain-inversion-agreement")
        assert failed["observed"] > failed["tolerance"]

    def test_c_shift_recorded_in_report(self, std_model):
        report = run_battery(std_model, seed=0, c_shift=1e-3, n_paths=5_000)
        assert report["c_shift"] == 1e-3

    def test_c_shift_without_closed_forms_is_refused(self, exp_initial_model):
        # no closed form runs outside the special family, so a shift would test nothing
        with pytest.raises(DomainError):
            run_battery(exp_initial_model, seed=0, c_shift=1e-3, n_paths=5_000)


class TestGeneralModel:
    def test_closed_form_checks_sit_out(self, exp_initial_model):
        report = run_battery(exp_initial_model, seed=1, n_paths=20_000)
        skipped = {c["name"] for c in report["checks"] if c["skipped"]}
        assert skipped == CLOSED_FORM_ONLY

    def test_remaining_checks_pass_and_coverage_holds(self, exp_initial_model):
        report = run_battery(exp_initial_model, seed=1, n_paths=20_000)
        assert report["all_passed"] is True
        assert report["failed_checks"] == []
        assert report["coverage"]["missing"] == []

    def test_finite_pmf_model_passes_with_full_coverage(self):
        model = ProcessModel(
            rate=1.0,
            marks=GeneralDiscrete([0.0, 0.5, 0.3, 0.2]),
            observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
            threshold=3,
        )
        report = run_battery(model, seed=0, n_paths=20_000)
        assert report["coverage"]["missing"] == []
        assert report["all_passed"] is True


class TestSeriesPathCheck:
    @pytest.mark.parametrize(
        "marks, threshold",
        [(Geometric(0.5), 50), (GeneralDiscrete([0.0, 0.5, 0.3, 0.2]), 60)],
    )
    def test_passes_beyond_the_sampling_floor(self, marks, threshold):
        model = ProcessModel(
            rate=1.0,
            marks=marks,
            observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
            threshold=threshold,
        )
        ctx = validation._Context(model=model, c=None, seed=0, n_paths=1_000)
        result = validation._check_series_paths(ctx)
        assert result.passed, result.observed
        assert result.covers == ("fluctuation.g1_star", "fluctuation.g2_star")


class TestOvershootCheck:
    PMF_MODEL = ProcessModel(
        rate=1.0,
        marks=GeneralDiscrete([0.0, 0.5, 0.3, 0.2]),
        observation=ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0)),
        threshold=3,
    )

    def test_band_scales_with_the_sample(self):
        ctx = validation._Context(model=self.PMF_MODEL, c=None, seed=0, n_paths=5_000)
        result = validation._check_overshoot_pmf(ctx)
        assert result.passed, result.observed
        assert result.tolerance == 1.0

    def test_moved_mass_fails_at_the_default_paths(self, monkeypatch):
        exact_law = timedomain.crossing_level_law

        def moved(model, r_max):
            law, mean = exact_law(model, r_max)
            law = law.copy()
            law[11] -= 0.005
            law[12] += 0.005
            return law, mean

        monkeypatch.setattr(timedomain, "crossing_level_law", moved)
        ctx = validation._Context(model=self.PMF_MODEL, c=None, seed=0, n_paths=100_000)
        result = validation._check_overshoot_pmf(ctx)
        assert not result.passed and result.observed > 1.0


class TestMcJointCheck:
    def test_band_scales_with_the_sample(self, std_model):
        ctx = validation._Context(model=std_model, c=_family(std_model), seed=0, n_paths=1_000)
        result = validation._check_mc_joint(ctx)
        assert result.passed, result.observed
        assert result.tolerance == 1.0

    def test_moved_mass_fails_at_the_default_paths(self, std_model, monkeypatch):
        # 0.007 moved between two cells near p = 0.05 is about 9 SE at 100k
        # paths, and lies inside a fixed absolute floor of 0.008
        exact_table = closedform.dist_table

        def moved(model, t_grid, r_max):
            table = exact_table(model, t_grid, r_max).copy()
            table[:, 8] -= 0.007
            table[:, 9] += 0.007
            return table

        monkeypatch.setattr(closedform, "dist_table", moved)
        ctx = validation._Context(model=std_model, c=_family(std_model), seed=0, n_paths=100_000)
        result = validation._check_mc_joint(ctx)
        assert not result.passed and result.observed > 1.0


class TestRegistry:
    def test_required_set_is_derived_from_all(self, std_report):
        want = set()
        for layer in ("model", "transforms", "series", "fluctuation", "closedform", "laplace", "timedomain"):
            module = importlib.import_module(f"crosswatch.{layer}")
            want |= {f"{layer}.{name}" for name in module.__all__ if inspect.isfunction(getattr(module, name))}
        want.discard("model.load_model")
        assert set(std_report["coverage"]["required"]) == want
        assert {"model.delay_lst", "model.mark_mean", "model.mark_sample"} <= want

    def test_unchecked_export_fails_coverage(self, std_model, monkeypatch):
        def unchecked_law(model):
            return model.threshold

        monkeypatch.setattr(timedomain, "unchecked_law", unchecked_law, raising=False)
        monkeypatch.setattr(timedomain, "__all__", [*timedomain.__all__, "unchecked_law"])
        report = run_battery(std_model, seed=0, n_paths=5_000)
        assert report["coverage"]["missing"] == ["timedomain.unchecked_law"]
        assert report["failed_checks"] == ["coverage-complete"]

    def test_skip_annotations_cover_closed_form_ops(self, exp_initial_model):
        # Every closed-form registry entry must still be claimed by some
        # non-skipped check, otherwise coverage would silently shrink.
        report = run_battery(exp_initial_model, seed=1, n_paths=5_000)
        covered = set()
        for check in report["checks"]:
            if not check["skipped"]:
                covered.update(check["covers"])
        assert set(report["coverage"]["required"]) <= covered


class TestInputValidation:
    def test_tiny_sample_count_rejected(self, std_model):
        with pytest.raises(DomainError):
            run_battery(std_model, n_paths=999)

    def test_validation_module_exports(self):
        assert hasattr(validation, "run_battery")


class TestTransformChainCheck:
    def test_closed_form_zero_gives_a_finite_observation(self):
        # at M = 50, theta = 0.5, v = 0.3 the closed form rounds a value
        # near 1e-27 to exactly 0; the check must report, not divide by it
        model = geometric_model(50)
        ctx = validation._Context(model=model, c=_family(model), seed=0, n_paths=1_000)
        result = validation._check_transform_chain(ctx)
        assert math.isfinite(result.observed)


class TestGhLimitsCheck:
    @pytest.mark.parametrize("lam, mu, a", [(2.0, 1.0, 0.5), (1.0, 2.0, 0.3), (1.5, 0.6, 0.5), (0.6, 1.5, 0.3)])
    def test_unequal_rates_pass(self, lam, mu, a):
        # H_j(inf) = 1 + b mu / lam, which equals b + mu / lam only at lam = mu
        model = geometric_model(3, lam=lam, a=a, mu=mu)
        ctx = validation._Context(model=model, c=_family(model), seed=0, n_paths=1_000)
        result = validation._check_gh_limits(ctx)
        assert result.passed and result.observed <= 1e-10, result


class TestSinglePassRule:
    @pytest.fixture(scope="class")
    def reports(self, std_report, std_model):
        # one passing report and two failing ones: a perturbed c, and M = 50
        return [
            std_report,
            run_battery(std_model, seed=0, c_shift=1e-3, n_paths=5_000),
            run_battery(geometric_model(50), seed=0, n_paths=1_000),
        ]

    def test_passed_is_observed_within_tolerance(self, reports):
        assert [r["all_passed"] for r in reports] == [True, False, False]
        for report in reports:
            for check in report["checks"]:
                if check["skipped"]:
                    continue
                if check["observed"] is None:  # non-finite, written as null
                    assert not check["passed"] and check["margin"] is None, check["name"]
                    continue
                assert check["passed"] == (check["observed"] <= check["tolerance"]), check["name"]
                assert check["margin"] == check["tolerance"] - check["observed"], check["name"]

    def test_each_check_is_registered_once(self):
        names = [inspect.getclosurevars(check).nonlocals["name"] for check in validation._CHECKS]
        assert len(names) == len(set(names))
        assert sorted(names) == [name for name in ALL_CHECKS if name != "coverage-complete"]

    def test_unit_norm_fails_the_contraction_bound(self, std_model, monkeypatch):
        monkeypatch.setattr(transforms, "gamma", lambda model, which, z, theta: 1.0)
        ctx = validation._Context(model=std_model, c=_family(std_model), seed=0, n_paths=1_000)
        result = validation._check_contraction(ctx)
        assert not result.passed
        assert result.observed == math.inf and result.tolerance == 1.0

    def test_invariant_violation_fails_the_table_check(self, std_model, monkeypatch):
        def broken(model, t_grid, r_max):
            raise TableInvariantError("row sum above one", cells=[(0, 1)])

        monkeypatch.setattr(closedform, "dist_table", broken)
        ctx = validation._Context(model=std_model, c=_family(std_model), seed=0, n_paths=1_000)
        result = validation._check_dist_table(ctx)
        assert not result.passed
        assert (result.observed, result.tolerance) == (1.0, 1e-9)
        assert "(0, 1)" in result.detail
