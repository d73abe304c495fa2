"""Experiment harness: fits, sweeps, verdicts, deterministic reports."""

import json
import math
import threading
import warnings
from fractions import Fraction

import pytest

from zarank import experiments
from zarank.experiments import (
    ExperimentReport,
    ExperimentSpec,
    fit_exponent,
    predicted_exponent,
    report_csv,
    report_json,
    report_svg,
    run_experiment,
)


class TestFitExponent:
    def test_exact_square_law(self):
        slope, resid = fit_exponent([(10, 100), (20, 400), (40, 1600)])
        assert abs(slope - 2.0) < 1e-9
        assert resid < 1e-9

    def test_constant_counts(self):
        slope, resid = fit_exponent([(10, 7), (20, 7), (40, 7), (80, 7)])
        assert abs(slope) < 1e-9
        assert resid < 1e-9

    def test_zero_counts_dropped_with_warning(self):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            slope, _ = fit_exponent([(10, 0), (20, 400), (40, 1600),
                                     (80, 6400)])
        assert any("zero count" in str(w.message) for w in got)
        assert abs(slope - 2.0) < 1e-9

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            fit_exponent([(10, 1), (20, 2)])


class TestSpecRoundTrip:
    def test_json_round_trip(self):
        spec = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80),
                              eps=Fraction(1, 100), seed=3)
        again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="minors", d=2, sizes=(20, 20, 40))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope", d=2, sizes=(1, 2, 3))


class TestPredictions:
    def test_minor_upper_exponent(self):
        spec = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80))
        pred, direction = predicted_exponent(spec)
        assert pred == Fraction(4, 3) and direction == "upper"

    def test_st_lower_exponent(self):
        spec = ExperimentSpec(kind="st-config", d=2, sizes=(4, 6, 8))
        pred, direction = predicted_exponent(spec)
        assert pred == Fraction(4, 3) and direction == "lower"

    def test_triangle_exponent(self):
        spec = ExperimentSpec(kind="triangles", d=2, sizes=(10, 20, 30))
        pred, _ = predicted_exponent(spec)
        assert pred == Fraction(12, 5)

    def test_sphere_exponent(self):
        spec = ExperimentSpec(kind="spheres", d=3, sizes=(10, 20, 30))
        pred, _ = predicted_exponent(spec)
        assert pred == Fraction(8, 3)


class TestRunExperiment:
    def test_minor_sweep_upper(self):
        spec = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80), seed=7)
        rep = run_experiment(spec)
        assert rep.verdict == "pass"
        assert rep.slope <= 4 / 3 + spec.tolerance
        assert all(r.kfree for r in rep.results if r.kfree_checked)

    def test_st_sweep_lower(self):
        spec = ExperimentSpec(kind="st-config", d=2, sizes=(4, 6, 8, 12),
                              seed=7)
        rep = run_experiment(spec)
        assert rep.verdict == "pass"
        assert rep.slope >= 4 / 3 - spec.tolerance
        # counts nondecreasing in the scale
        counts = [r.count for r in rep.results]
        assert counts == sorted(counts)

    def test_triangle_random_sweep(self):
        spec = ExperimentSpec(kind="triangles", d=2, sizes=(20, 30, 45, 65),
                              seed=3)
        rep = run_experiment(spec)
        assert rep.verdict == "pass"

    def test_triangle_cluster_flagged(self):
        spec = ExperimentSpec(kind="triangles", d=2, sizes=(9, 12, 15),
                              seed=3, variant="clusters")
        rep = run_experiment(spec)
        assert rep.verdict == "bound-not-applicable"
        assert any(r.kfree is False for r in rep.results)

    def test_sphere_sweep(self):
        spec = ExperimentSpec(kind="spheres", d=3, sizes=(12, 18, 27, 40),
                              seed=3)
        rep = run_experiment(spec)
        assert rep.verdict == "pass"
        assert rep.slope <= 8 / 3 + spec.tolerance

    def test_k1uu_sweep(self):
        spec = ExperimentSpec(kind="k1uu", d=3, sizes=(4, 8, 16, 32), seed=1)
        rep = run_experiment(spec)
        assert rep.verdict == "pass"
        assert rep.slope >= 2 - spec.tolerance

    def test_partition_sweep(self):
        spec = ExperimentSpec(kind="partition", d=1, sizes=(64, 128, 256),
                              seed=5, r=8)
        rep = run_experiment(spec)
        assert rep.verdict == "pass"

    def test_reports_reproducible(self):
        spec = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80), seed=9)
        first = report_json(run_experiment(spec))
        second = report_json(run_experiment(spec))
        assert first == second

    def test_sizes_run_in_order_on_calling_thread(self, monkeypatch):
        calls = []
        run_size = experiments._run_size

        def record(spec, size):
            calls.append((size, threading.get_ident()))
            return run_size(spec, size)

        monkeypatch.setattr(experiments, "_run_size", record)
        spec = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80), seed=9)
        run_experiment(spec)
        assert calls == [(s, threading.get_ident()) for s in spec.sizes]


class TestNaiveRecount:
    def test_oracle_capped_for_triangles_and_spheres(self, monkeypatch):
        # C(107, 3) = 198,485 triples are recounted, C(108, 3) = 204,156
        # are past the 200,000 cap and must not reach the naive counter
        ran = []

        def record(cfg):
            ran.append(cfg.n)
            return -1

        monkeypatch.setattr(experiments, "count_almost_unit_area_naive", record)
        monkeypatch.setattr(experiments, "count_sphere_intersections_naive",
                            record)
        for kind, d in (("triangles", 2), ("spheres", 3)):
            spec = ExperimentSpec(kind=kind, d=d, sizes=(20, 107, 108))
            assert experiments._naive_recount(spec, 108) is None
            assert experiments._naive_recount(spec, 107) == -1
        assert ran == [107, 107]


class TestEmission:
    def make_report(self):
        spec = ExperimentSpec(kind="st-config", d=2, sizes=(2, 3, 4), seed=1)
        return run_experiment(spec)

    def test_json_round_trips_byte_identical(self):
        rep = self.make_report()
        text = report_json(rep)
        again = ExperimentReport.from_dict(json.loads(text))
        assert report_json(again) == text

    def test_csv_shape(self):
        rep = self.make_report()
        lines = report_csv(rep).strip().split("\n")
        assert lines[0].startswith("size,n,count")
        assert len(lines) == 1 + len(rep.results)

    def test_empty_and_single_row_csv(self):
        rep = self.make_report()
        empty = ExperimentReport(rep.spec, (), None, None, None, "none",
                                 "pass")
        assert report_csv(empty) == "size,n,count,kfree_checked,kfree,skipped,note\n"
        single = ExperimentReport(rep.spec, rep.results[:1], None, None,
                                  None, "none", "pass")
        assert len(report_csv(single).strip().split("\n")) == 2

    def test_svg_contains_points(self):
        rep = self.make_report()
        svg = report_svg(rep)
        assert svg.startswith("<svg")
        assert svg.count("<circle") == len(
            [r for r in rep.results if r.count > 0])
