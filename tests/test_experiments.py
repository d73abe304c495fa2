"""Experiment harness: fits, sweeps, verdicts, deterministic reports."""

import hashlib
import json
import math
import threading
import warnings
from fractions import Fraction

import pytest

from zarank import experiments, geometry
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

    def test_whole_float_sizes_accepted(self):
        spec = ExperimentSpec(kind="minors", d=2, sizes=(20.0, 40, 80.0))
        assert [type(s) for s in spec.sizes] == [int] * 3
        assert spec == ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80))

    @pytest.mark.parametrize("sizes", [(20.5, 40, 80), (True, 40, 80),
                                       ("20", "40", "80")])
    def test_other_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="whole numbers"):
            ExperimentSpec(kind="minors", d=2, sizes=sizes)

    def test_size_limits_follow_generator_ranges(self, monkeypatch):
        """The largest size a spec may ask for is the number of distinct
        points the generator can draw, so the generator finishes there."""
        monkeypatch.setattr(experiments, "_CLUSTER_RADIUS", 1)
        monkeypatch.setattr(experiments, "_PARTITION_BOUND", 1)
        spec = ExperimentSpec(kind="triangles", d=2, sizes=(9, 18, 27),
                              variant="clusters")
        assert experiments._cluster_triangle_points(spec, 27).n == 27
        with pytest.raises(ValueError, match="<= 27"):
            ExperimentSpec(kind="triangles", d=2, sizes=(9, 18, 28),
                           variant="clusters")
        spec = ExperimentSpec(kind="partition", d=2, sizes=(4, 9), r=2)
        assert experiments._partition_points(spec, 9).n == 9
        with pytest.raises(ValueError, match="<= 9"):
            ExperimentSpec(kind="partition", d=2, sizes=(4, 10), r=2)


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

    def test_det_target_reaches_the_pattern_check(self, monkeypatch):
        """A +-1 minors sweep counts the same subsets, and its pattern
        check receives the +-1 hypergraph (twice the edges at d = 2)."""
        checked = []
        detect = experiments.contains_complete

        def record(H, pattern, budget):
            checked.append(H)
            return detect(H, pattern, budget=budget)

        monkeypatch.setattr(experiments, "contains_complete", record)
        base = ExperimentSpec(kind="minors", d=2, sizes=(20, 40, 80), seed=4)
        pm = ExperimentSpec.from_dict(dict(base.to_dict(),
                                           det_target="plus-minus-one"))
        counts = [r.count for r in run_experiment(base).results]
        checked.clear()
        assert [r.count for r in run_experiment(pm).results] == counts
        for size, H, count in zip(pm.sizes, checked, counts):
            cfg, _ = experiments._config(pm, size)
            assert H == geometry.unit_minor_hypergraph(
                cfg, geometry.DetTarget.PLUS_MINUS_ONE)
            assert H.num_edges == 2 * count

    def test_recount_stops_at_the_oracle_cap(self, monkeypatch):
        """st-config size 8 has C(1536, 2) pairs, past the cap, and larger
        sizes have more: no size after it is tried."""
        asked = []
        recount = experiments._naive_recount

        def record(spec, size):
            asked.append(size)
            return recount(spec, size)

        monkeypatch.setattr(experiments, "_naive_recount", record)
        run_experiment(ExperimentSpec(kind="st-config", d=2,
                                      sizes=(8, 12, 16)))
        assert asked == [8]


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


# ---------------------------------------------------------------------------
# generator output, pinned by the sha256 of its text form


def _partition_text(spec, size, monkeypatch):
    """The points a partition sweep builds at this size, caught at the
    partition call."""
    seen = []

    def catch(cfg, *args, **kwargs):
        seen.append(cfg.to_text())
        raise experiments.PartitionSearchError("caught")

    monkeypatch.setattr(experiments, "stone_tukey_partition", catch)
    experiments._run_size(spec, size)
    return seen[0]


def _generator_text(name, d, size, monkeypatch):
    def spec(kind, **kw):
        return ExperimentSpec(kind=kind, d=d, sizes=(size, size + 1, size + 2),
                              **kw)

    if name == "st-config":
        return geometry.st_lower_bound_minor_config(d, size).to_text()
    if name == "k1uu":
        return geometry.k1uu_config(d, size).to_text()
    if name == "matrix":
        return experiments._random_matrix(spec("minors"), size).to_text()
    if name == "triangles":
        return experiments._random_triangle_points(spec("triangles"),
                                                   size).to_text()
    if name == "clusters":
        return experiments._cluster_triangle_points(
            spec("triangles", variant="clusters"), size).to_text()
    if name == "spheres":
        return experiments._random_spheres(spec("spheres"), size).to_text()
    return _partition_text(ExperimentSpec(kind="partition", d=d, sizes=(size,),
                                          r=2), size, monkeypatch)


GENERATOR_SHA256 = {
    ("st-config", 2, 2):
        "dc29fbf4d4c30f3594b568734512fad837d2a5e6011c86c2fdef55c4ae121f7c",
    ("st-config", 2, 5):
        "0f01093d6805efb6d450cf0cddc8f65318b93da44204f6b92e5a4b37bc4a7757",
    ("st-config", 3, 2):
        "c6d75649c3aa9da0cedbe6fc11b7213c616b1498a410d17c30dc11a3777f57ac",
    ("st-config", 3, 5):
        "5946b6dbc4b3cad365af1a6b7168624ab12df75904af0707021a7ab4742f5ddf",
    ("k1uu", 2, 2):
        "c960ddf761dd517aa3ff8271a7f71845a11e8ed58dafdbc225cfda2c04111b83",
    ("k1uu", 2, 5):
        "a023c962a562630079e6ea42bc1d08b476a45a11d6c946e33a95b74825170c91",
    ("k1uu", 3, 2):
        "c4e14fd097871cb676570a9163d07bc2d6dfeb8db1ee8caecc437a80e4b3a1ff",
    ("k1uu", 3, 5):
        "6c642646bd614a9847a9ac627f0aff51f84dc2edb9c23a1aa89df39ee7d69734",
    ("matrix", 2, 10):
        "36718de87dc66bfad32828c2f4a139e8ac70c1845a184412078dc01e29c4752b",
    ("matrix", 2, 37):
        "a9991670e94abcbad49689125b06334abdce0dc081fc79491e8a12a410002117",
    ("matrix", 3, 10):
        "2a45ce716db042a2186e7da7666ab7cd5e57d8d4790ad09847cf5b600d0a8629",
    ("matrix", 3, 37):
        "e6deaf25a64b8e206e74f1cd32c9e094d7f67d7868fddaec945067463bda980c",
    ("triangles", 2, 10):
        "0acfe27b615df9250d6c1d3939306aa708f6163234ecdf56215982fd52fe3156",
    ("triangles", 2, 37):
        "e4bba58c3e8fc518aea55459fd2f000a20138bf3cff11cf8afcb09c9af585c3f",
    ("clusters", 2, 10):
        "8657d69bae44ac7da9c094c9ac5d06a56295166376583ff93069888a46464dab",
    ("clusters", 2, 37):
        "c5d2366343beb7be04387fe0362df00e412b7223d550102f42ef96d18d34a33a",
    ("spheres", 2, 10):
        "ae65294d0b5d0144d17a5b54ca2b02a4ab3eea63d6d4263dffb8f52eae93dacf",
    ("spheres", 2, 37):
        "f0170472cc2bf050b1d476d0f761bd04ede66bc944cd3fd25c43d110e1fff51d",
    ("spheres", 3, 10):
        "615101e6bc6e5617fb91a4afe9c6a4121145e334c8b9bfebedd7673446b8e242",
    ("spheres", 3, 37):
        "2b9ae2b04b0b7fbd0d4d59fc7530eb738255cc9d35bf2526ffb4b25b1f8cd892",
    ("partition", 2, 10):
        "253ff2754e2c877d6ee3f0785cccc60d51a7dd59e761929f4569f36a09260837",
    ("partition", 2, 37):
        "203c02b1c457a8c8ea869642504b53af9309ed10a5ce81fad9d54eb2e1905f8a",
    ("partition", 3, 10):
        "7f2ddfbe6e8ac2a83a5d3105820671330d63b01b769e5603cccae6387804445e",
    ("partition", 3, 37):
        "f1344589a51553b3613cc1d3dd7b9abc271f7e30a2f752bf2049463f33bfc842",
}


@pytest.mark.parametrize("name, d, size", sorted(GENERATOR_SHA256))
def test_generator_output_is_pinned(name, d, size, monkeypatch):
    text = _generator_text(name, d, size, monkeypatch)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        GENERATOR_SHA256[name, d, size]
