"""Mark laws, delay laws, model validation, and config loading."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crosswatch import closedform, montecarlo, timedomain
from crosswatch.errors import ConfigError, DivergenceError, DomainError, UnsupportedLawError
from crosswatch.model import (
    DegenerateZero,
    Exponential,
    GeneralDiscrete,
    Geometric,
    ObservationLaw,
    ProcessModel,
    TransformArgs,
    delay_lst,
    load_model,
    mark_mean,
    mark_pgf,
    mark_sample,
)


def _with_zeros(n: int) -> list[float]:
    """A pmf on n points with zero entries first, in the middle and last."""
    weights = 1.0 + np.arange(n) % 7
    weights[[0, n // 2, n - 1]] = 0.0
    return (weights / weights.sum()).tolist()


class TestMarkLaws:
    def test_geometric_pgf_closed_form(self):
        # P{X=k} = a b^{k-1}, k >= 1, so E[z^X] = a z / (1 - b z)
        law = Geometric(0.25)
        z = 0.3 + 0.1j
        want = 0.25 * z / (1.0 - 0.75 * z)
        assert mark_pgf(law, z) == pytest.approx(want, rel=1e-14)

    def test_geometric_b_complement(self):
        assert Geometric(0.7).b == pytest.approx(0.3)

    def test_degenerate_unit_marks(self):
        # a = 1 collapses to a point mass at 1: the pgf is the identity
        law = Geometric(1.0)
        for z in (0.0, 0.5, -0.3 + 0.2j, 1.0):
            assert mark_pgf(law, z) == pytest.approx(z)

    def test_geometric_rejects_bad_parameter(self):
        for a in (0.0, -0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                Geometric(a)

    def test_general_discrete_pgf_is_dot_product(self):
        pmf = [0.1, 0.2, 0.3, 0.4]
        law = GeneralDiscrete(pmf)
        z = 0.6
        want = sum(p * z**k for k, p in enumerate(pmf))
        assert mark_pgf(law, z) == pytest.approx(want, rel=1e-14)

    def test_general_discrete_validation(self):
        with pytest.raises(DomainError):
            GeneralDiscrete([])
        with pytest.raises(DomainError):
            GeneralDiscrete([0.5, -0.1, 0.6])
        with pytest.raises(DomainError):
            GeneralDiscrete([0.5, 0.4])  # mass 0.9
        for pmf in ([0.5, math.nan, 0.5], [math.nan], [0.5, math.inf, 0.5]):
            with pytest.raises(DomainError, match="nonnegative and sum to 1"):
                GeneralDiscrete(pmf)

    def test_mark_mean(self):
        assert mark_mean(Geometric(0.5)) == pytest.approx(2.0)
        assert mark_mean(GeneralDiscrete([0.0, 0.5, 0.5])) == pytest.approx(1.5)

    def test_mark_sample_matches_law(self):
        rng = np.random.default_rng(11)
        draws = mark_sample(Geometric(0.5), rng, 200_000)
        # mean 2, variance b/a^2 = 2
        assert draws.min() >= 1
        assert abs(draws.mean() - 2.0) < 5 * math.sqrt(2.0 / 200_000)

    @pytest.mark.parametrize("a", [0.3, 1.0])
    def test_geometric_sample_follows_its_pmf(self, a):
        n, top = 200_000, 40
        draws = mark_sample(Geometric(a), np.random.default_rng(13), n)
        assert draws.dtype == np.int64 and draws.min() >= 1
        # P{mark = k} = a b^{k-1} for k < top, and P{mark >= top} = b^{top-1}
        exact = np.append(a * (1.0 - a) ** np.arange(top - 1), (1.0 - a) ** (top - 1))
        freq = np.bincount(np.minimum(draws, top) - 1, minlength=top) / n
        band = 5.0 * np.sqrt(exact * (1.0 - exact) / n) + 1.0 / n
        assert np.all(np.abs(freq - exact) <= band)

    @pytest.mark.parametrize("pmf", [
        [0.0, 1.0], [0.25, 0.75], [1.0, 0.0],
        [0.0, 0.5, 0.3, 0.2], [0.5, 0.0, 0.3, 0.2], [0.5, 0.3, 0.2, 0.0],
        [0.5, 0.5, 1e-18],  # the cdf reaches 1 a step early
        *map(_with_zeros, (16, 17, 64, 65, 1000)),
    ], ids=lambda pmf: f"support-{len(pmf)}")
    @pytest.mark.parametrize("size", [0, 1, 20_000])
    def test_pmf_marks_are_the_indices_choice_draws(self, pmf, size):
        law = GeneralDiscrete(pmf)
        mine, theirs = np.random.default_rng(21), np.random.default_rng(21)
        marks = mark_sample(law, mine, size)
        expected = theirs.choice(law.pmf.size, p=law.pmf, size=size)
        assert marks.dtype == expected.dtype and np.array_equal(marks, expected)
        assert mine.random() == theirs.random()  # the same state after the draw

    @given(
        a=st.floats(0.05, 1.0),
        r=st.floats(0.0, 1.0),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_pgf_bounded_on_unit_disk(self, a, r, phase):
        z = r * complex(math.cos(phase), math.sin(phase))
        val = mark_pgf(Geometric(a), z)
        assert abs(val) <= 1.0 + 1e-12

    def test_pgf_normalization(self):
        assert mark_pgf(Geometric(0.3), 1.0) == pytest.approx(1.0)
        assert mark_pgf(GeneralDiscrete([0.2, 0.8]), 1.0) == pytest.approx(1.0)


class TestDelayLaws:
    def test_degenerate_zero_lst_is_one(self):
        assert delay_lst(DegenerateZero(), 3.7 + 1.0j) == 1.0

    def test_exponential_lst(self):
        # E[e^{-zT}] = rate / (rate + z)
        assert delay_lst(Exponential(2.0), 3.0) == pytest.approx(0.4)

    def test_exponential_pole_test_is_relative_to_the_rate(self):
        # a slow gap is no nearer its pole: the LST at z = 0 is 1 in every time unit
        for rate in (1e-13, 2.0**-60, 1e6):
            assert delay_lst(Exponential(rate), 0.0) == 1.0
            assert delay_lst(Exponential(rate), 1e-3 * rate) == pytest.approx(1.0 / 1.001, rel=1e-15)
            with pytest.raises(DomainError):
                delay_lst(Exponential(rate), -rate)

    def test_exponential_rejects_nonpositive_rate(self):
        with pytest.raises(DomainError):
            Exponential(0.0)


class TestObservationLaw:
    def test_recurring_must_be_positive(self):
        with pytest.raises(UnsupportedLawError):
            ObservationLaw(initial=DegenerateZero(), recurring=DegenerateZero())

    def test_unknown_initial_law_rejected(self):
        with pytest.raises(UnsupportedLawError):
            ObservationLaw(initial=object(), recurring=Exponential(1.0))


class TestProcessModel:
    def test_validation(self):
        obs = ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0))
        with pytest.raises(DomainError):
            ProcessModel(rate=0.0, marks=Geometric(0.5), observation=obs, threshold=3)
        with pytest.raises(DomainError):
            ProcessModel(rate=1.0, marks=Geometric(0.5), observation=obs, threshold=-1)
        with pytest.raises(DomainError):
            ProcessModel(rate=1.0, marks=Geometric(0.5), observation=obs, threshold=2.5)
        with pytest.raises(DomainError, match="threshold"):
            ProcessModel(rate=1.0, marks=Geometric(0.5), observation=obs, threshold=True)
        with pytest.raises(UnsupportedLawError, match="mark law"):
            ProcessModel(rate=1.0, marks=object(), observation=obs, threshold=3)

    @pytest.mark.parametrize("pmf", [[1.0], [1.0, 0.0, 0.0]])
    def test_all_zero_marks_refused(self, pmf):
        obs = ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0))
        with pytest.raises(DivergenceError, match="every mark is zero"):
            ProcessModel(rate=1.0, marks=GeneralDiscrete(pmf), observation=obs, threshold=3)
        raw = {"schema_version": 1, "lambda": 1.0, "marks": {"pmf": pmf}, "obs": {"mu": 1.0, "initial": "zero"},
               "threshold": 3}
        with pytest.raises(DivergenceError, match="every mark is zero"):  # not a ConfigError
            load_model(raw)
        # a nonzero mark, however rare, moves the level
        rare = ProcessModel(rate=1.0, marks=GeneralDiscrete([1.0 - 1e-12, 1e-12]), observation=obs, threshold=3)
        assert timedomain._moving_rate(rare) > 0.0

    def test_zero_threshold_allowed(self):
        obs = ObservationLaw(initial=DegenerateZero(), recurring=Exponential(1.0))
        m = ProcessModel(rate=1.0, marks=Geometric(0.5), observation=obs, threshold=0)
        assert m.threshold == 0

    def test_initial_is_zero_flag(self, std_model, exp_initial_model):
        assert std_model.first_rate is None
        assert exp_initial_model.first_rate == exp_initial_model.observation.initial.rate


class TestTransformArgs:
    def test_defaults_are_neutral(self):
        args = TransformArgs()
        assert (args.u, args.v, args.y) == (1.0, 1.0, 1.0)
        assert (args.theta, args.w, args.x) == (0.0, 0.0, 0.0)

    def test_unit_disk_bounds(self):
        with pytest.raises(DomainError):
            TransformArgs(v=1.5)
        with pytest.raises(DomainError):
            TransformArgs(theta=-0.5)
        # complex tags inside the disk pass, and so does each bound's 1e-12 slack
        TransformArgs(theta=0.3 + 1.0j, u=0.5j, v=-0.2)
        for edge in (1.0 + 1e-12, -1.0 - 1e-12, 1e-12j - 1.0):
            TransformArgs(theta=-1e-12, u=edge, v=edge, w=-1e-12, x=-1e-12 + 3.0j, y=edge)
            with pytest.raises(DomainError):
                TransformArgs(v=edge * (1.0 + 1e-11))
        with pytest.raises(DomainError):
            TransformArgs(x=-1.1e-12)

    @pytest.mark.parametrize(
        "fields",
        [
            {"theta": math.nan},
            {"theta": math.inf},
            {"theta": complex(0.5, math.nan)},
            {"theta": complex(math.inf, 0.0)},
            {"theta": np.array([0.5, math.nan])},
            {"theta": np.array([0.5, math.inf + 0.0j])},
            {"w": math.nan},
            {"w": math.inf},
            {"x": math.inf},
            {"x": complex(0.0, math.inf)},
            {"u": math.nan},
            {"v": math.nan},
            {"y": complex(math.nan, 0.0)},
        ],
        ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_nan_and_infinity_refused_on_construction(self, fields):
        with pytest.raises(DomainError):
            TransformArgs(**fields)

    def test_empty_theta_batch_refused_by_name(self):
        with pytest.raises(DomainError, match="theta"):
            TransformArgs(theta=np.array([]))

    @staticmethod
    def _accepted_by_bounds(theta, u, v, w, x, y) -> bool:
        """The domain of finite arguments, written out apart from the model code."""
        tol = 1e-12
        return (all(abs(complex(t)) <= 1.0 + tol for t in (u, v, y))
                and min(np.ravel(theta).real.tolist()) >= -tol
                and all(complex(t).real >= -tol for t in (w, x)))

    @given(
        tags=st.lists(st.tuples(st.floats(0.0, 1.0 + 3e-12), st.floats(0.0, 2.0 * math.pi)), min_size=3, max_size=3),
        dampings=st.lists(st.tuples(st.floats(-3e-12, 5.0), st.floats(-5.0, 5.0)), min_size=3, max_size=3),
        theta_array=st.booleans(),
    )
    def test_finite_arguments_keep_their_bounds(self, tags, dampings, theta_array):
        u, v, y = (r * complex(math.cos(a), math.sin(a)) for r, a in tags)
        theta, w, x = (complex(re, im) for re, im in dampings)
        if theta_array:
            theta = np.array([1.0, theta])
        if self._accepted_by_bounds(theta, u, v, w, x, y):
            TransformArgs(theta=theta, u=u, v=v, w=w, x=x, y=y)
        else:
            with pytest.raises(DomainError):
                TransformArgs(theta=theta, u=u, v=v, w=w, x=x, y=y)


class TestLevelBound:
    """dist_table, estimate_joint and crossing_level_law share one check of r_max."""

    @pytest.mark.parametrize("r_max", [True, 2.0, -1, "7"])
    @pytest.mark.parametrize("caller", ["dist_table", "estimate_joint", "crossing_level_law"])
    def test_refused(self, std_model, caller, r_max):
        call = {
            "dist_table": lambda: closedform.dist_table(std_model, [0.0, 1.0], r_max),
            "estimate_joint": lambda: montecarlo.estimate_joint(std_model, r_max, [0.0, 1.0], 1_000),
            "crossing_level_law": lambda: timedomain.crossing_level_law(std_model, r_max),
        }[caller]
        with pytest.raises(DomainError, match="r_max"):
            call()


class TestLoadModel:
    def _config(self, **overrides):
        cfg = {
            "schema_version": 1,
            "lambda": 1.0,
            "marks": {"geometric": {"a": 0.5}},
            "obs": {"mu": 1.0, "initial": "zero"},
            "threshold": 3,
        }
        cfg.update(overrides)
        return cfg

    def test_mapping_roundtrip(self):
        m = load_model(self._config())
        assert m.rate == 1.0
        assert isinstance(m.marks, Geometric)
        assert m.threshold == 3
        assert m.first_rate is None

    def test_pmf_marks(self):
        m = load_model(self._config(marks={"pmf": [0.0, 0.4, 0.6]}))
        assert isinstance(m.marks, GeneralDiscrete)

    def test_exponential_initial(self):
        m = load_model(self._config(obs={"mu": 2.0, "initial": "exp"}))
        assert isinstance(m.observation.initial, Exponential)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_model(self._config(extra=1))

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError):
            load_model(self._config(schema_version=2))

    def test_marks_exactly_one_kind(self):
        bad = self._config()
        bad["marks"] = {"geometric": {"a": 0.5}, "pmf": [0.0, 1.0]}
        with pytest.raises(ConfigError):
            load_model(bad)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambda": True},
            {"lambda": "1.0"},
            {"lambda": 10**400},
            {"lambda": math.inf},
            {"obs": {"mu": True, "initial": "zero"}},
            {"obs": {"mu": 10**400, "initial": "zero"}},
            {"obs": {"mu": math.inf, "initial": "zero"}},
            {"marks": {"geometric": {"a": True}}},
            {"marks": {"geometric": {"a": "0.5"}}},
            {"marks": {"geometric": {"a": 10**400}}},
            {"marks": {"pmf": [0, True]}},
            {"marks": {"pmf": ["0", "1"]}},
            {"marks": {"pmf": [0, 10**400]}},
            {"marks": {"pmf": [0, math.inf]}},
            {"marks": {"pmf": "01"}},
            {"marks": {"pmf": {"1": 0.5, "2": 0.5}}},
        ],
    )
    def test_numbers_must_be_finite_json_numbers(self, overrides):
        with pytest.raises(ConfigError):
            load_model(self._config(**overrides))

    def test_pmf_object_refused_by_name(self):
        # JSON object keys are strings, so a mark law given as an object is refused as not an array
        with pytest.raises(ConfigError, match="marks.pmf must be an array of numbers"):
            load_model(self._config(marks={"pmf": {"1": 0.5, "2": 0.5}}))

    def test_integer_numbers_still_accepted(self):
        m = load_model(self._config(**{"lambda": 2, "obs": {"mu": 1, "initial": "exp"},
                                       "marks": {"pmf": [0, 1]}}))
        assert (m.rate, m.observation.recurring.rate) == (2.0, 1.0)
        assert isinstance(m.rate, float)
