"""Samplers and Monte Carlo table builders."""

import itertools
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mvdtest.simulate
from mvdtest import (
    DistributionSpec,
    KernelSpec,
    SIGMA_RULES,
    run_test,
    sample,
    sigma_from_rule,
    slope_regression,
    type1_power_table,
    variance_table,
)
from mvdtest.discrepancy import _block_terms, _combine_terms, _shift
from mvdtest.kernels import gram
from mvdtest.null import SubsamplingPlan, _subsample_variance
from mvdtest.simulate import _derived_seed, _variance_se

BAD_CELLS = [
    ("d^-3/4", 2, 3, 32),
    ("d^-3/4", 2, 32, 1),
    ("d^-3/4", 0, 32, 32),
    (0.5, 2, 32.0, 32),
    (0.5, True, 32, 32),
]

# Cells that are not 4 items: tuple unpacking refused them without naming the cell.
MALFORMED_CELLS = [("d^-1", 2, 32), ("d^-1", 2, 32, 32, 1), 5]


class TestSigmaFromRule:
    @pytest.mark.parametrize("rule,exponent", list(SIGMA_RULES.items()))
    def test_presets(self, rule, exponent):
        assert sigma_from_rule(rule, 5) == 5.0 ** -exponent

    def test_auto_is_three_quarters(self):
        assert sigma_from_rule("auto", 7) == 7.0 ** -0.75

    def test_numeric_string(self):
        assert sigma_from_rule("0.25", 5) == 0.25

    def test_number_taken_at_face_value(self):
        assert sigma_from_rule(0.4, 99) == 0.4
        assert type(sigma_from_rule(2, 5)) is float and sigma_from_rule(2, 5) == 2.0

    @pytest.mark.parametrize("rule", [True, False, np.True_, np.False_])
    def test_rejects_a_bool(self, rule):
        # True used to give sigma = 1, and a numpy bool took the string branch to float(rule).
        with pytest.raises(ValueError, match=f"sigma must be a positive finite real, got {rule!r}"):
            sigma_from_rule(rule, 5)

    @pytest.mark.parametrize("rule", [np.float32(0.5), np.float64(0.5), np.int64(2), np.uint8(2)])
    def test_numpy_numbers_taken_at_face_value(self, rule):
        assert sigma_from_rule(rule, 5) == float(rule) and type(sigma_from_rule(rule, 5)) is float

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="unknown sigma rule"):
            sigma_from_rule("d^-5", 5)

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError, match="positive finite"):
            sigma_from_rule("-1.5", 5)

    @pytest.mark.parametrize("rule,d", [("d^-1", 0), ("auto", 2.5), ("d^-1", True)])
    def test_rejects_zero_dimension_for_rules(self, rule, d):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer >= 1, got {d!r}")):
            sigma_from_rule(rule, d)


class TestDistributions:
    def test_deterministic(self):
        d = DistributionSpec.std_normal(3)
        np.testing.assert_array_equal(sample(d, 50, seed=4), sample(d, 50, seed=4))

    def test_shapes(self):
        for family in ("std_normal", "uniform_unit", "centered_exponential"):
            assert sample(DistributionSpec(family, 2), 11, seed=1).shape == (11, 2)

    def test_uniform_support_and_moments(self):
        u = sample(DistributionSpec("uniform_unit", 1), 10**6, seed=606).ravel()
        root3 = math.sqrt(3.0)
        assert u.min() >= -root3 and u.max() <= root3
        assert abs(u.mean()) < 0.005
        assert abs(u.var(ddof=1) - 1.0) < 0.01

    def test_exponential_moments_and_skewness(self):
        e = sample(DistributionSpec("centered_exponential", 1), 10**6, seed=607).ravel()
        assert e.min() >= -1.0
        assert abs(e.mean()) < 0.005
        assert abs(e.var(ddof=1) - 1.0) < 0.01
        skew = np.mean(((e - e.mean()) / e.std(ddof=0)) ** 3)
        assert abs(skew - 2.0) < 0.05

    def test_degenerate_mixture_rejects_at_nominal_rate(self):
        # A mixture of N(0, I) with itself is N(0, I): a null-level check on its samples.
        spec = DistributionSpec.std_normal(2)
        rejections = 0
        for r in range(20):
            x = sample(spec, 100, seed=[777, r, 0])
            y = sample(spec, 100, seed=[777, r, 1])
            rejections += run_test(x, y, KernelSpec(sigma=0.5), kind="mvd",
                                   draws=2000, seed=1000 + r).reject
        assert rejections <= 5

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            DistributionSpec(family="cauchy", dim=2)

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            sample(DistributionSpec.std_normal(1), 0)

    @pytest.mark.parametrize("d", [2.5, True, 0])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, d):
        with pytest.raises(ValueError, match=re.escape(f"d must be an integer >= 1, got {d!r}")):
            DistributionSpec.std_normal(d)

    @pytest.mark.parametrize("seed,match", [
        pytest.param(-1, "^seed must be a non-negative integer, got -1$", id="negative"),
        pytest.param(True, "^seed must be an integer, got True$", id="bool"),
        pytest.param(1.5, "^seed must be an integer, got 1.5$", id="float"),
        pytest.param("abc", "^seed must be an integer, got 'abc'$", id="string"),
        pytest.param([1, -1], "^seed must be a non-negative integer, got -1$", id="negative-part"),
    ])
    def test_rejects_a_bad_seed(self, seed, match):
        # -1 and [1, -1] raised numpy's "expected non-negative integer", 1.5 a TypeError; True ran as 1.
        with pytest.raises(ValueError, match=match):
            sample(DistributionSpec.std_normal(2), 3, seed=seed)


class TestVarianceSe:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        v = rng.normal(size=500)
        r = v.size
        m4 = float(np.mean((v - v.mean()) ** 4))
        var = float(v.var(ddof=1))
        want = math.sqrt((m4 - var**2 * (r - 3) / (r - 1)) / r)
        np.testing.assert_allclose(_variance_se(v), want, rtol=1e-12)

    def test_zero_for_constant_values(self):
        assert _variance_se(np.full(100, 3.7)) == 0.0


class TestSlopeRegression:
    def test_hand_case(self):
        assert slope_regression([(1.0, 1.0), (2.0, 3.0)]) == 1.4

    def test_exact_on_proportional_data(self):
        pairs = [(x, 2.5 * x) for x in (0.5, 1.0, 4.0)]
        np.testing.assert_allclose(slope_regression(pairs), 2.5, rtol=1e-15)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            slope_regression([])

    def test_rejects_all_zero_predictors(self):
        with pytest.raises(ValueError, match="slope is undefined"):
            slope_regression([(0.0, 1.0), (0.0, 2.0)])


class TestVarianceTable:
    CELL = ("d^-3/4", 2, 32, 32)

    def _run(self, **kw):
        args = dict(cells=[self.CELL], reps=40, divisors=(4, 8), iterations=30, seed=3)
        args.update(kw)
        return variance_table(**args)

    def test_row_structure(self):
        res = self._run()
        estimates = [(r["kind"], r["estimate"], r["divisor"]) for r in res.rows]
        for kind in ("mvd", "mmd"):
            assert (kind, "exact_variance", None) in estimates
            for div in (4, 8):
                assert (kind, "subsample_variance", div) in estimates
                assert (kind, "slope", div) in estimates
        for row in res.rows:
            assert row["table"] == "variance"
            if row["estimate"] == "exact_variance":
                assert row["value"] > 0.0
                assert row["se"] > 0.0
                assert row["reps"] == 40
            if row["estimate"] == "subsample_variance":
                assert row["k"] == 32 // row["divisor"]
                assert row["se"] is None

    def test_config_echo(self):
        res = self._run()
        assert res.config["cells"] == [list(self.CELL)]
        assert res.config["reps"] == 40
        assert res.config["divisors"] == [4, 8]
        assert res.config["seed"] == 3
        json.dumps(res.config)  # must be serializable as-is

    def test_deterministic(self):
        assert self._run().rows == self._run().rows

    def test_seed_matters(self):
        a = self._run(seed=3)
        b = self._run(seed=4)
        va = [r["value"] for r in a.rows if r["estimate"] == "exact_variance"]
        vb = [r["value"] for r in b.rows if r["estimate"] == "exact_variance"]
        assert va != vb

    def test_slope_recomputable_from_rows(self):
        res = self._run(cells=[self.CELL, ("d^-1", 2, 24, 24)])
        exact = {(r["n"], r["kind"]): r["value"] for r in res.rows
                 if r["estimate"] == "exact_variance"}
        for kind in ("mvd", "mmd"):
            for div in (4, 8):
                pairs = [(r["value"], exact[r["n"], r["kind"]]) for r in res.rows
                         if r["estimate"] == "subsample_variance"
                         and r["kind"] == kind and r["divisor"] == div]
                slope_rows = [r["value"] for r in res.rows if r["estimate"] == "slope"
                              and r["kind"] == kind and r["divisor"] == div]
                np.testing.assert_allclose(slope_rows, [slope_regression(pairs)], rtol=1e-12)

    def test_shared_subsampling_matches_single_kind_runs(self):
        both = self._run(kinds=("mmd", "mvd"))
        for kind in ("mvd", "mmd"):
            alone = self._run(kinds=(kind,))
            assert alone.rows == tuple(r for r in both.rows if r["kind"] == kind)

    def test_rejects_duplicate_kinds(self):
        # A repeated kind would repeat its rows.
        with pytest.raises(ValueError, match="distinct"):
            self._run(kinds=("mvd", "mvd"))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            self._run(seed=-1)

    def test_rejects_too_few_reps(self):
        with pytest.raises(ValueError, match="reps >= 2"):
            self._run(reps=1)

    @pytest.mark.parametrize("cell", BAD_CELLS)
    def test_rejects_bad_cell_before_any_replication(self, cell, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before every cell was checked")
        monkeypatch.setattr(mvdtest.simulate, "gram", no_replication)
        want = re.escape(f"cell 1 {cell}: need integers d >= 1, n >= 4 and m >= 2")
        with pytest.raises(ValueError, match=want):
            self._run(cells=[self.CELL, cell])

    @pytest.mark.parametrize("cell", MALFORMED_CELLS)
    def test_rejects_malformed_cell_before_any_replication(self, cell, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before every cell was checked")
        monkeypatch.setattr(mvdtest.simulate, "gram", no_replication)
        want = "^" + re.escape(f"cell 1 {cell!r}: need the 4 items (sigma_rule, d, n, m)") + "$"
        with pytest.raises(ValueError, match=want):
            self._run(cells=[self.CELL, cell])

    @pytest.mark.parametrize("divisor", [0, 1, 4.0])
    def test_rejects_bad_divisor_before_any_replication(self, divisor, monkeypatch):
        # 0 used to raise a bare ZeroDivisionError, 1 a plan error about k.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the divisors were checked")
        monkeypatch.setattr(mvdtest.simulate, "gram", no_replication)
        want = re.escape(f"divisor {divisor!r}: need an integer >= 2")
        with pytest.raises(ValueError, match=want):
            self._run(divisors=(4, divisor))

    def test_rejects_repeated_divisors_before_any_replication(self, monkeypatch):
        # (4, 4) once emitted every subsample row and every slope row twice.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the divisors were checked")
        monkeypatch.setattr(mvdtest.simulate, "gram", no_replication)
        with pytest.raises(ValueError, match=re.escape("divisors must be distinct, got (4, 4)")):
            self._run(divisors=(4, 4))

    @pytest.mark.parametrize("iterations,match", [
        pytest.param(2.7, "iterations must be an integer, got 2.7", id="float"),
        pytest.param(True, "iterations must be an integer, got True", id="bool"),
        pytest.param(-5, "need at least 2 iterations, got -5", id="negative"),
        pytest.param("abc", "iterations must be an integer, got 'abc'", id="string"),
    ])
    def test_rejects_bad_iterations_without_divisors(self, iterations, match, monkeypatch):
        # With no divisor no plan checked them: the config echoed 2, 1 and -5, and "abc" failed in int().
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the iterations were checked")
        monkeypatch.setattr(mvdtest.simulate, "gram", no_replication)
        with pytest.raises(ValueError, match=re.escape(match)):
            self._run(divisors=(), iterations=iterations)

    def test_rejects_a_bare_string_of_kinds(self):
        # "mmd" was read as the kinds "m", "m", "d".
        with pytest.raises(ValueError, match=re.escape("a sequence such as ('mvd',), got the string 'mmd'")):
            self._run(kinds="mmd")

    def test_one_shot_divisors_serve_every_cell(self):
        # A generator was used up by the first cell's plans: no subsample rows, and "divisors": [].
        res = variance_table([self.CELL, self.CELL], reps=3, divisors=(d for d in (4,)), iterations=5)
        subs = [(r["d"], r["kind"], r["divisor"]) for r in res.rows if r["estimate"] == "subsample_variance"]
        assert subs == [(2, "mvd", 4), (2, "mmd", 4)] * 2
        assert res.config["divisors"] == [4]

    def test_smallest_cell_runs_every_divisor(self):
        res = self._run(cells=[("d^-3/4", 2, 4, 2)], divisors=(4, 6, 8))
        subs = [r for r in res.rows if r["estimate"] == "subsample_variance"]
        assert [(r["k"], r["l"]) for r in subs] == [(2, 2)] * 6

    def test_rejects_no_cells(self):
        with pytest.raises(ValueError, match="at least one cell"):
            variance_table(cells=[])


class TestVarianceTableThreads:
    """The exact replications run on one lane per CPU; rows must not depend on it."""

    CELLS = [("d^-3/4", 2, 16, 12), ("d^-1", 3, 12, 16)]
    REPS = 107

    def _run(self, workers, monkeypatch):
        monkeypatch.setattr(mvdtest.simulate, "_worker_count", lambda: workers)
        return variance_table(cells=self.CELLS, reps=self.REPS, divisors=(4,), iterations=10, seed=11)

    def test_rows_do_not_depend_on_worker_count(self, monkeypatch):
        threads = set()
        real_gram = mvdtest.simulate.gram

        def recording_gram(x, y, spec, *, out=None):
            threads.add(threading.get_ident())
            return real_gram(x, y, spec, out=out)

        monkeypatch.setattr(mvdtest.simulate, "gram", recording_gram)
        serial = self._run(1, monkeypatch).rows
        assert threads == {threading.get_ident()}
        assert {r["kind"] for r in serial if r["estimate"] == "exact_variance"} == {"mvd", "mmd"}
        assert self._run(2, monkeypatch).rows == serial
        assert len(threads) > 1
        # More workers than blocks, switching threads as often as the interpreter allows.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert self._run(64, monkeypatch).rows == serial
        finally:
            sys.setswitchinterval(interval)

    def test_rows_at_a_wide_seed_do_not_depend_on_worker_count(self, monkeypatch):
        # Seeds of two or more words move the streams' replication index to a
        # later SeedSequence word.
        rows = []
        for workers in (1, 2):
            monkeypatch.setattr(mvdtest.simulate, "_worker_count", lambda: workers)
            rows.append(variance_table(cells=self.CELLS, reps=self.REPS, divisors=(4,), iterations=10,
                                       seed=2**40 + 1).rows)
        assert rows[1] == rows[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_a_loop_over_separate_blocks(self, workers, monkeypatch):
        # A lane's one Gram buffer takes a rep's three blocks in turn; that
        # must move no bit against three arrays of their own (n != m).
        (rule, d, n, m), reps, seed = self.CELLS[0], 40, 5
        kinds = ("mvd", "mmd")
        monkeypatch.setattr(mvdtest.simulate, "_worker_count", lambda: workers)
        rows = variance_table([self.CELLS[0]], kinds=kinds, reps=reps, divisors=(4,), iterations=10,
                              seed=seed).rows
        spec = KernelSpec(sigma=sigma_from_rule(rule, d))
        scaled = {kind: np.empty(reps) for kind in kinds}
        for rep in range(reps):
            rng = np.random.default_rng([seed, 0, 0, rep])
            x, y = rng.standard_normal((n, d)), rng.standard_normal((m, d))
            k_x, k_y, k_xy = gram(x, x, spec), gram(y, y, spec), gram(x, y, spec)
            shift = _shift(k_xy)
            raws = _combine_terms(kinds, *[_block_terms(kinds, b, shift) for b in (k_x, k_y, k_xy)], n, m)
            for kind in kinds:
                scaled[kind][rep] = (n + m) * max(float(raws[kind]), 0.0)
        # The subsampled rows come from _subsample_variance, whose lanes
        # test_null holds to the same kind of loop.
        x = np.random.default_rng([seed, 0, 2, 4]).standard_normal((n, d))
        v_subs = _subsample_variance(gram(x, x, spec), kinds, SubsamplingPlan.for_sample(n, 4, 10), m,
                                     _derived_seed(seed, 0, 1, 4))
        want = [("exact_variance", kind, float(scaled[kind].var(ddof=1)), _variance_se(scaled[kind]))
                for kind in kinds]
        want += [("subsample_variance", kind, v_sub, None) for kind, v_sub in zip(kinds, v_subs)]
        want += [("slope", kind, slope_regression([(v_sub, want[i][2])]), None)
                 for i, (kind, v_sub) in enumerate(zip(kinds, v_subs))]
        assert [(r["estimate"], r["kind"], r["value"], r["se"]) for r in rows] == want

    def test_each_exact_lane_holds_one_gram_buffer(self, monkeypatch):
        # n = 300 > m = 200: the two exact lanes' buffers of n^2 scalars set
        # the traced peak, above the subsampling's Gram matrix of x and its
        # one lane's buffers (k = 37, 10 iterations).  The slack, fixed in
        # advance, covers the samples, the block terms and the stream states.
        monkeypatch.setattr(mvdtest.simulate, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            variance_table([("d^-1", 2, 300, 200)], reps=4, divisors=(8,), iterations=10, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 300**2 + (1 << 19)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_in_a_replication_reaches_the_caller(self, workers, monkeypatch):
        failure = RuntimeError("gram failed")
        calls = itertools.count(1)
        real_gram = mvdtest.simulate.gram

        def failing_gram(x, y, spec, *, out=None):
            if next(calls) == 152:  # the second of rep 50's three Gram blocks
                raise failure
            return real_gram(x, y, spec, out=out)

        monkeypatch.setattr(mvdtest.simulate, "gram", failing_gram)
        with pytest.raises(RuntimeError) as info:
            self._run(workers, monkeypatch)
        assert info.value is failure
        if workers == 1:  # no rep after the failing one starts
            assert next(calls) == 153


class TestTypeOnePowerTable:
    CELL = ("d^-3/4", 2, 24, 24)

    def _run(self, **kw):
        args = dict(cells=[self.CELL], alternatives=("uniform", "exponential"),
                    reps=4, divisor=8, iterations=40, draws=200, seed=5)
        args.update(kw)
        return type1_power_table(**args)

    def test_row_structure(self):
        res = self._run()
        seen = {(r["kind"], r["scenario"]) for r in res.rows}
        assert seen == {(k, s) for k in ("mvd", "mmd")
                        for s in ("null", "uniform", "exponential")}
        for row in res.rows:
            assert row["table"] == "power"
            assert 0.0 <= row["value"] <= 1.0
            p = row["value"]
            np.testing.assert_allclose(row["se"], math.sqrt(p * (1 - p) / row["reps"]),
                                       rtol=1e-12)
            assert row["reps"] == 4
            assert row["divisor"] == 8

    def test_config_echo_and_determinism(self):
        a = self._run()
        b = self._run()
        assert a.rows == b.rows
        assert a.config["alpha"] == 0.05
        assert a.config["divisor"] == 8
        json.dumps(a.config)

    def test_tau_scalar_and_mapping(self):
        one = self._run(tau=0.4, reps=2)
        two = self._run(tau={"mvd": 0.4, "mmd": 0.4}, reps=2)
        assert one.rows == two.rows

    @pytest.mark.parametrize("tau,plain", [(np.float32(0.5), 0.5), (np.int64(1), 1.0)])
    def test_numpy_scalar_tau(self, tau, plain):
        got = self._run(tau=tau, reps=1, alternatives=())
        want = self._run(tau=plain, reps=1, alternatives=())
        assert got.rows == want.rows
        assert type(got.config["tau"]) is float and got.config == want.config
        assert json.dumps(got.config) == json.dumps(want.config)

    def test_rejects_unknown_alternative(self):
        with pytest.raises(ValueError, match="unknown alternative"):
            self._run(alternatives=("cauchy",))

    def test_rejects_repeated_alternatives_before_any_replication(self, monkeypatch):
        # A repeated alternative once gave two rows of that name with different rates.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the alternatives were checked")
        monkeypatch.setattr(mvdtest.simulate, "sample", no_replication)
        with pytest.raises(ValueError, match=re.escape("alternatives must be distinct, got ('uniform', 'uniform')")):
            self._run(alternatives=("uniform", "uniform"))

    def test_rejects_a_bare_string_of_alternatives_before_any_replication(self, monkeypatch):
        # "uniform" was read as the alternatives "u", "n", ... and refused as "unknown alternative 'u'".
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the alternatives were checked")
        monkeypatch.setattr(mvdtest.simulate, "sample", no_replication)
        want = re.escape("alternatives must be a sequence such as ('uniform',), got the string 'uniform'")
        with pytest.raises(ValueError, match=want):
            self._run(alternatives="uniform")

    def test_rejects_an_unhashable_alternative_by_name(self):
        with pytest.raises(ValueError, match=re.escape("unknown alternative ['uniform']; choose from")):
            self._run(alternatives=[["uniform"]])

    @pytest.mark.parametrize("run_args,match", [
        pytest.param({"alpha": "0.05"}, "alpha must be in (0, 1), got '0.05'", id="string-alpha"),
        pytest.param({"draws": 10}, "draws=10 is too small for alpha=0.05", id="too-few-draws"),
        pytest.param({"draws": 2.5}, "draws must be an integer, got 2.5", id="float-draws"),
    ])
    def test_rejects_bad_run_arguments_before_any_replication(self, run_args, match, monkeypatch):
        # Each was refused by run_tests, after the first replication had drawn its two samples.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before alpha and draws were checked")
        monkeypatch.setattr(mvdtest.simulate, "sample", no_replication)
        with pytest.raises(ValueError, match=re.escape(match)):
            self._run(**run_args)

    def test_rejects_an_alpha_that_is_not_a_real(self):
        with pytest.raises(ValueError, match=re.escape("alpha must be in (0, 1), got '0.05'")):
            self._run(alpha="0.05", reps=1, alternatives=())

    def test_rejects_duplicate_kinds(self):
        # A repeated kind would count its rejections twice.
        with pytest.raises(ValueError, match="distinct"):
            self._run(kinds=("mvd", "mvd"))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            self._run(seed=-1)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps >= 1"):
            self._run(reps=0)

    def test_rejects_no_cells(self):
        with pytest.raises(ValueError, match="at least one cell"):
            type1_power_table(cells=[])

    @pytest.mark.parametrize("cell", BAD_CELLS)
    def test_rejects_bad_cell_before_any_replication(self, cell, monkeypatch):
        # n = 3 used to fail on its first replication with "k=2 exceeds the first pool".
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before every cell was checked")
        monkeypatch.setattr(mvdtest.simulate, "run_tests", no_replication)
        want = re.escape(f"cell 1 {cell}: need integers d >= 1, n >= 4 and m >= 2")
        with pytest.raises(ValueError, match=want):
            self._run(cells=[self.CELL, cell])

    @pytest.mark.parametrize("cell", MALFORMED_CELLS)
    def test_rejects_malformed_cell_before_any_replication(self, cell, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before every cell was checked")
        monkeypatch.setattr(mvdtest.simulate, "run_tests", no_replication)
        want = "^" + re.escape(f"cell 1 {cell!r}: need the 4 items (sigma_rule, d, n, m)") + "$"
        with pytest.raises(ValueError, match=want):
            self._run(cells=[self.CELL, cell])

    @pytest.mark.parametrize("divisor", [0, 1, 8.0])
    def test_rejects_bad_divisor_before_any_replication(self, divisor, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the divisor was checked")
        monkeypatch.setattr(mvdtest.simulate, "run_tests", no_replication)
        with pytest.raises(ValueError, match=re.escape(f"divisor {divisor!r}: need an integer >= 2")):
            self._run(divisor=divisor)

    @pytest.mark.parametrize("tau,match", [
        ("0.3", "tau must be a real number, got '0.3'"),
        (True, "tau must be a real number, got True"),
        ({"mmd": "0.3"}, "tau must be a real number, got '0.3'"),
        ({"mvd": True}, "tau must be a real number, got True"),
        (-0.5, "tau must be >= 0 and finite, got -0.5"),
        ({"mdv": 0.3}, "unknown statistic kind 'mdv'"),
    ])
    def test_rejects_bad_tau_before_any_replication(self, tau, match, monkeypatch):
        # "0.3" used to run every replication, then fail while the config was built.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before tau was checked")
        monkeypatch.setattr(mvdtest.simulate, "run_tests", no_replication)
        with pytest.raises(ValueError, match=re.escape(match)):
            self._run(tau=tau)

    def test_rejects_a_bool_sigma_rule_before_any_replication(self, monkeypatch):
        # True used to run at sigma = 1 with sigma_rule True in its rows.
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the cells were checked")
        monkeypatch.setattr(mvdtest.simulate, "run_tests", no_replication)
        with pytest.raises(ValueError, match="sigma must be a positive finite real, got True"):
            self._run(cells=[(True, 2, 20, 20)])
