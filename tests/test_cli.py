"""CLI surface: every subcommand, file formats, exit codes."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zarank import experiments
from zarank.cli import main
from zarank.geometry import (
    PointConfig,
    SphereConfig,
    spheres_meet,
    triangle_double_area,
)
from zarank.hypergraph import KPartiteHypergraph
from fraction_det import det_fraction_gauss


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBounds:
    def test_full_check_run(self, capsys):
        code, out, _ = run(capsys, "bounds", "--dims", "2,2,3",
                           "--sizes", "100,100,100", "--eps", "1/100",
                           "--check", "matrix,scaling,monotonicity,dominance")
        assert code == 0
        doc = json.loads(out)
        assert doc["alphas"] == ["7/9", "7/9", "8/9"]
        assert doc["checks"]["matrix"]["ok"]
        assert all(row["ok"] for row in doc["checks"]["scaling"])

    def test_full_check_run_bytes(self, capsys):
        """The whole report, down to the dominance ratio's last bit."""
        code, out, _ = run(capsys, "bounds", "--dims", "2,2,3",
                           "--sizes", "100,100,100", "--eps", "1/100",
                           "--check", "matrix,scaling,monotonicity,dominance")
        assert code == 0
        assert json.loads(out)["checks"]["dominance"]["ratio"] == \
            0.28848022609098106
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0eeb0a618c235dd2b32c9b70286b03a730d87eb663aa893a5f3dbb1e9571213c")

    def test_exact_strings_and_floats(self, capsys):
        code, out, _ = run(capsys, "bounds", "--dims", "2,2",
                           "--sizes", "8,8")
        doc = json.loads(out)
        assert doc["E"]["terms"] == [[["8", "2/3"], ["8", "2/3"]]]
        assert doc["E"]["float"] == pytest.approx(16.0)
        assert doc["F"]["float"] == pytest.approx(32.0)


class TestBuildDetect:
    def test_minors_pipeline(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text(PointConfig(
            2, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(1)))).to_text())
        hg = tmp_path / "h.txt"
        code, _, _ = run(capsys, "build", "--kind", "minors", "--points",
                         str(pts), "--out", str(hg),
                         "--target", "plus-minus-one")
        assert code == 0
        H = KPartiteHypergraph.from_text(hg.read_text())
        assert H.num_edges == 6  # three unit pairs, both orders

        code, out, _ = run(capsys, "detect", "--hypergraph", str(hg),
                           "--pattern", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True

    def test_detect_budget_exit_code(self, tmp_path, capsys):
        edges = [(i, j) for i in range(6) for j in range(6) if i != j]
        hg = tmp_path / "h.txt"
        hg.write_text(KPartiteHypergraph.build((6, 6), edges).to_text())
        code, out, _ = run(capsys, "detect", "--hypergraph", str(hg),
                           "--pattern", "3,4", "--budget", "2")
        assert code == 3
        assert "error" in json.loads(out)

    def test_st_config_with_hypergraph(self, tmp_path, capsys):
        out_pts = tmp_path / "cfg.txt"
        out_hg = tmp_path / "hg.txt"
        code, _, _ = run(capsys, "build", "--kind", "st-config", "--d", "2",
                         "--scale", "2", "--out", str(out_pts),
                         "--hypergraph", str(out_hg))
        assert code == 0
        cfg = PointConfig.from_text(out_pts.read_text())
        assert cfg.n == 24
        H = KPartiteHypergraph.from_text(out_hg.read_text())
        assert H.num_edges > 0

    def test_k1uu_build(self, tmp_path, capsys):
        out_pts = tmp_path / "cfg.txt"
        code, _, _ = run(capsys, "build", "--kind", "k1uu", "--d", "3",
                         "--u", "2", "--out", str(out_pts))
        assert code == 0
        assert PointConfig.from_text(out_pts.read_text()).n == 5

    def test_triangles_build(self, tmp_path, capsys):
        pts = tmp_path / "pts.txt"
        pts.write_text("2 3\n0 0\n2 0\n0 1\n")
        code, out, _ = run(capsys, "build", "--kind", "triangles",
                           "--points", str(pts))
        assert code == 0
        H = KPartiteHypergraph.from_text(out)
        assert H.num_edges == 6

    def test_spheres_build(self, tmp_path, capsys):
        sp = tmp_path / "s.txt"
        sp.write_text("2 3\n0 0 1\n2 0 1\n9 9 1\n")
        code, out, _ = run(capsys, "build", "--kind", "spheres",
                           "--spheres", str(sp))
        assert code == 0
        H = KPartiteHypergraph.from_text(out)
        assert H.edges == frozenset({(0, 1), (1, 0)})


class TestBuildText:
    """`zarank build` writes the text of the hypergraph built from tuples
    of the edges that the Fraction predicates find: the header, then the
    edges in sorted order."""

    @staticmethod
    def tuple_text(k, n, edges):
        lines = [" ".join(map(str, (k,) + (n,) * k))]
        lines += [" ".join(map(str, e)) for e in sorted(edges)]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("kind", ["minors", "triangles", "spheres"])
    def test_text_of_tuple_built_hypergraph(self, tmp_path, capsys, kind):
        rng = random.Random(11)
        n = 14
        if kind == "spheres":
            rows = set()
            while len(rows) < n:
                rows.add((rng.randint(0, 12), rng.randint(0, 12),
                          rng.randint(1, 9)))
            cfg = SphereConfig.from_integers(2, sorted(rows))
            S = cfg.spheres
            edges = [(i, j) for i, j in itertools.permutations(range(n), 2)
                     if spheres_meet((S[i], S[j]))[0]]
            k, flag = 2, "--spheres"
        else:
            top = 3 if kind == "minors" else 4
            rows = set()
            while len(rows) < n:
                rows.add((rng.randint(-top, top), rng.randint(-top, top)))
            cfg = PointConfig.from_integers(2, sorted(rows))
            P = cfg.points
            if kind == "minors":
                k = 2
                edges = [e for e in itertools.permutations(range(n), 2)
                         if det_fraction_gauss([[P[i][r] for i in e]
                                                 for r in range(2)]) == 1]
            else:
                k = 3
                edges = [e for e in itertools.permutations(range(n), 3)
                         if Fraction(9, 5) <= triangle_double_area(
                             *(P[i] for i in e)) <= Fraction(11, 5)]
            flag = "--points"
        src = tmp_path / "in.txt"
        src.write_text(cfg.to_text())
        code, out, _ = run(capsys, "build", "--kind", kind, flag, str(src))
        assert code == 0 and edges
        assert out == KPartiteHypergraph.build((n,) * k, edges).to_text()
        assert out == self.tuple_text(k, n, edges)


class TestShatter:
    def test_exhaustive(self, tmp_path, capsys):
        edges = [(p, q) for p in range(4) for q in range(4) if q <= p]
        hg = tmp_path / "h.txt"
        hg.write_text(KPartiteHypergraph.build((4, 4), edges).to_text())
        code, out, _ = run(capsys, "shatter", "--hypergraph", str(hg),
                           "--ground-part", "1", "--z", "2")
        assert code == 0
        doc = json.loads(out)
        # neighborhoods are nested prefixes: traces on 2 points total 3
        assert doc["value"] == 3

    def test_budget_exit(self, tmp_path, capsys):
        edges = [(p, q) for p in range(3) for q in range(20) if (p + q) % 3]
        hg = tmp_path / "h.txt"
        hg.write_text(KPartiteHypergraph.build((3, 20), edges).to_text())
        code, out, _ = run(capsys, "shatter", "--hypergraph", str(hg),
                           "--ground-part", "1", "--z", "10",
                           "--budget", "10")
        assert code == 3
        assert "sampled" in json.loads(out)["error"]


class TestPartitionCmd:
    def test_partition_json(self, tmp_path, capsys):
        import random
        rng = random.Random(5)
        pts = set()
        while len(pts) < 64:
            pts.add((Fraction(rng.randint(-500, 500)),
                     Fraction(rng.randint(-500, 500))))
        f = tmp_path / "p.txt"
        f.write_text(PointConfig(2, tuple(sorted(pts))).to_text())
        code, out, _ = run(capsys, "partition", "--points", str(f),
                           "--r", "4", "--seed", "7", "--slack", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 64
        assert len(doc["factors"]) == 2
        assert doc["max_cell"] <= doc["cell_bound"]
        assert sum(doc["cells"].values()) + doc["boundary"] == 64
        assert doc["c_part"] > 0


class TestExperimentCmd:
    def test_experiment_files(self, tmp_path, capsys):
        spec = {"kind": "st-config", "d": 2, "sizes": [2, 3, 4], "seed": 1}
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps(spec))
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        out_svg = tmp_path / "report.svg"
        code, _, err = run(capsys, "experiment", "--spec", str(sf),
                           "--out", str(out_json), "--csv", str(out_csv),
                           "--svg", str(out_svg))
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert doc["verdict"] == "pass"
        assert out_csv.read_text().startswith("size,n,count")
        assert out_svg.read_text().startswith("<svg")
        assert "verdict=pass" in err

    def test_exhausted_pattern_budget_exits_zero(self, tmp_path, capsys):
        """Only a skipped size exits 3; a pattern check out of budget is
        reported per size and leaves the exit code alone."""
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps({"kind": "minors", "d": 2,
                                  "sizes": [20, 40, 80], "kfree_budget": 1}))
        code, out, _ = run(capsys, "experiment", "--spec", str(sf))
        assert code == 0
        results = json.loads(out)["results"]
        assert [(r["kfree_checked"], r["note"], r["skipped"])
                for r in results] == [
            (True, "", False),
            (False, "pattern check budget exhausted", False),
            (False, "pattern check budget exhausted", False)]


class TestOutputInPlace:
    """An output file is overwritten in place and cut at the end of the
    new text, never truncated to zero first; pipes and devices are
    written as before."""

    SPEC = {"kind": "st-config", "d": 2, "sizes": [2, 3, 4], "seed": 1}

    def report(self, tmp_path, capsys, out) -> bytes:
        """The report written to `out`, and then read back from it."""
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps(self.SPEC))
        code, _, _ = run(capsys, "experiment", "--spec", str(sf),
                         "--out", str(out))
        assert code == 0
        return Path(out).read_bytes()

    def old_file(self, path, size=100_000) -> Path:
        path.write_bytes(bytes(range(256)) * (size // 256) + b"!" * (size % 256))
        return path

    def test_longer_file_is_cut_to_the_report(self, tmp_path, capsys):
        fresh = self.report(tmp_path, capsys, tmp_path / "fresh.json")
        assert 0 < len(fresh) < 100_000
        big = self.old_file(tmp_path / "big.json")
        assert self.report(tmp_path, capsys, big) == fresh

    def test_hard_link_sees_the_report_on_the_same_inode(self, tmp_path,
                                                         capsys):
        fresh = self.report(tmp_path, capsys, tmp_path / "fresh.json")
        out = self.old_file(tmp_path / "out.json")
        link = tmp_path / "link.json"
        os.link(out, link)
        inode = out.stat().st_ino
        self.report(tmp_path, capsys, out)
        assert out.stat().st_ino == inode
        assert link.read_bytes() == fresh

    def test_symlink_is_written_through(self, tmp_path, capsys):
        fresh = self.report(tmp_path, capsys, tmp_path / "fresh.json")
        target = self.old_file(tmp_path / "target.json")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert self.report(tmp_path, capsys, link) == fresh
        assert link.is_symlink()
        assert target.read_bytes() == fresh

    def test_no_truncating_open(self, tmp_path, capsys, monkeypatch):
        opened, real = [], os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        out = self.old_file(tmp_path / "out.json")
        self.report(tmp_path, capsys, out)
        flags = [f for p, f in opened if p == str(out)]
        assert len(flags) == 1
        assert not flags[0] & os.O_TRUNC

    @pytest.mark.parametrize("device", ["/dev/null", "/dev/stdout"])
    def test_device_into_a_pipe(self, tmp_path, capsys, device):
        """A device is not a regular file, so it is not cut: /dev/null
        swallows the report, /dev/stdout hands it to the pipe whole."""
        fresh = self.report(tmp_path, capsys, tmp_path / "fresh.json")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "zarank.cli", "experiment", "--spec",
             str(tmp_path / "spec.json"), "--out", device],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert done.returncode == 0
        assert done.stdout == (b"" if device == "/dev/null" else fresh)


class TestVerifyCmd:
    def test_lemmas_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "lemmas",
                           "--count", "20", "--seed", "3")
        assert code == 0
        assert out.count("PASS") == 4

    def test_erdos_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "erdos",
                           "--count", "30")
        assert code == 0
        assert "PASS" in out

    def test_minor_free_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "minor-free",
                           "--count", "15")
        assert code == 0
        assert "PASS" in out


# Malformed rationals and the message each one gets, wherever it is read.
BAD_RATIONALS = {"1/0": "'1/0' has denominator 0",
                 "1/2/3": "'1/2/3' is not an integer p or a fraction p/q"}


class TestInputErrors:
    """Malformed input exits with code 4 and one line of JSON, no traceback."""

    def check(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out.count("\n") == 1
        assert "error" in json.loads(out)
        assert "Traceback" not in err
        return json.loads(out)["error"]

    @pytest.mark.parametrize("argv, fragment", [
        (["build", "--kind", "bogus"], "invalid choice: 'bogus'"),
        (["verify", "--suite", "bogus"], "invalid choice: 'bogus'"),
        (["bounds"], "--dims"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["partition", "--r", "a"], "invalid int value: 'a'"),
    ])
    def test_usage_error(self, capsys, argv, fragment):
        assert fragment in self.check(capsys, *argv)

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("command, flag", [
        ("build", "--out"), ("build", "--hypergraph"),
        ("experiment", "--out"), ("experiment", "--csv"),
        ("experiment", "--svg"),
    ])
    def test_unwritable_output_path(self, tmp_path, capsys, command, flag):
        # every other output goes to a writable file, so that stdout holds
        # only the error line
        bad = tmp_path / "missing" / "x.txt"
        if command == "build":
            argv = ["build", "--kind", "st-config"]
        else:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"kind": "minors", "d": 2,
                                        "sizes": [20, 40, 80]}))
            argv = ["experiment", "--spec", str(spec)]
        outs = {"--out": str(tmp_path / "out.txt"), flag: str(bad)}
        msg = self.check(capsys, *argv, *itertools.chain(*outs.items()))
        assert msg.startswith(f"{bad}: ")

    def test_empty_hypergraph_file(self, tmp_path, capsys):
        hg = tmp_path / "h.txt"
        hg.write_text("")
        msg = self.check(capsys, "detect", "--hypergraph", str(hg),
                         "--pattern", "1,1")
        assert "empty" in msg

    def test_points_file_with_too_few_lines(self, tmp_path, capsys):
        pts = tmp_path / "p.txt"
        pts.write_text("2 3\n0 0\n1 1\n")
        msg = self.check(capsys, "partition", "--points", str(pts),
                         "--r", "2")
        assert "expected 3 points" in msg

    def test_out_of_range_edge(self, tmp_path, capsys):
        hg = tmp_path / "h.txt"
        hg.write_text("2 3 3\n0 1\n1 5\n")
        msg = self.check(capsys, "shatter", "--hypergraph", str(hg),
                         "--z", "1")
        assert "out of part" in msg

    def test_bounds_two_unit_dimensions(self, capsys):
        msg = self.check(capsys, "bounds", "--dims", "1,1")
        assert "more than one d_i equals 1" in msg

    def test_bounds_unknown_check(self, capsys):
        msg = self.check(capsys, "bounds", "--dims", "2,2", "--check", "bogus")
        assert "unknown check 'bogus'" in msg

    def test_bounds_negative_eps(self, capsys):
        msg = self.check(capsys, "bounds", "--dims", "2,2", "--sizes",
                         "10,10", "--eps", "-1")
        assert "--eps -1 is negative" in msg

    def test_bounds_dominance_with_one_dimension(self, capsys):
        msg = self.check(capsys, "bounds", "--dims", "5", "--sizes", "10",
                         "--check", "dominance")
        assert "--check dominance needs at least two dims" in msg

    @pytest.mark.parametrize("dims, checked", [
        ("1,2", []), ("2,1", []), ("1,2,3", [2]), ("2,2", [0, 1]),
    ])
    def test_bounds_monotonicity_skips_undefined_decrements(
            self, capsys, dims, checked):
        # decrementing a 2 next to a 1 gives two dimensions equal to 1,
        # where the bound is undefined: that index is skipped, exit 0
        sizes = ",".join(["10"] * len(dims.split(",")))
        code, out, err = run(capsys, "bounds", "--dims", dims, "--sizes",
                             sizes, "--check", "monotonicity")
        assert code == 0 and "Traceback" not in err
        rows = json.loads(out)["checks"]["monotonicity"]
        assert [row["index"] for row in rows] == checked

    @pytest.mark.parametrize("token", sorted(BAD_RATIONALS))
    def test_bad_rational_in_eps_flag(self, capsys, token):
        msg = self.check(capsys, "bounds", "--dims", "2,2", "--sizes",
                         "10,10", "--eps", token)
        assert msg == BAD_RATIONALS[token]

    @pytest.mark.parametrize("token", sorted(BAD_RATIONALS))
    def test_bad_rational_in_spec(self, tmp_path, capsys, token):
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps({"kind": "minors", "d": 2,
                                  "sizes": [20, 40, 80], "eps": token}))
        msg = self.check(capsys, "experiment", "--spec", str(sf))
        assert msg == f"{sf}: {BAD_RATIONALS[token]}"

    @pytest.mark.parametrize("token", sorted(BAD_RATIONALS))
    def test_bad_rational_in_points_file(self, tmp_path, capsys, token):
        pts = tmp_path / "p.txt"
        pts.write_text(f"2 3\n0 0\n1 {token}\n2 0\n")
        msg = self.check(capsys, "partition", "--points", str(pts),
                         "--r", "2")
        assert msg == f"{pts}: {BAD_RATIONALS[token]}"

    def test_bounds_pattern_size_zero(self, capsys):
        msg = self.check(capsys, "bounds", "--dims", "2,2", "--u", "0")
        assert "--u 0 is not >= 1" in msg

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_verify_count_below_one(self, capsys, count):
        msg = self.check(capsys, "verify", "--suite", "lemmas",
                         "--count", count)
        assert f"--count {count} is not >= 1" in msg

    @pytest.mark.parametrize("pattern, fragment", [
        ("2,x", "--pattern"), ("1,1,1", "3 class sizes"), ("0,1", ">= 1")])
    def test_detect_bad_pattern(self, tmp_path, capsys, pattern, fragment):
        hg = tmp_path / "h.txt"
        hg.write_text("2 2 2\n0 1\n1 0\n")
        msg = self.check(capsys, "detect", "--hypergraph", str(hg),
                         "--pattern", pattern)
        assert fragment in msg

    def test_shatter_z_beyond_ground_set(self, tmp_path, capsys):
        hg = tmp_path / "h.txt"
        hg.write_text("2 2 2\n0 1\n1 0\n")
        msg = self.check(capsys, "shatter", "--hypergraph", str(hg),
                         "--z", "9")
        assert "--z 9" in msg

    @pytest.mark.parametrize("r", ["1", "4"])
    def test_partition_r_out_of_range(self, tmp_path, capsys, r):
        pts = tmp_path / "p.txt"
        pts.write_text("2 3\n0 0\n1 1\n2 0\n")
        msg = self.check(capsys, "partition", "--points", str(pts), "--r", r)
        assert f"--r {r}" in msg

    @pytest.mark.parametrize("flag", ["--seed", "--slack"])
    def test_partition_negative_option(self, tmp_path, capsys, flag):
        pts = tmp_path / "p.txt"
        pts.write_text("2 3\n0 0\n1 1\n2 0\n")
        msg = self.check(capsys, "partition", "--points", str(pts), "--r",
                         "2", flag, "-1")
        assert f"{flag} -1 is not >= 0" in msg

    @pytest.mark.parametrize("kind, text, fragment", [
        ("triangles", "3 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n",
         "triangles need dimension 2, not 3"),
        ("minors", "1 3\n1\n2\n3\n", "minors need dimension >= 2, not 1"),
    ])
    def test_build_points_of_wrong_dimension(self, tmp_path, capsys, kind,
                                             text, fragment):
        pts = tmp_path / "p.txt"
        pts.write_text(text)
        msg = self.check(capsys, "build", "--kind", kind, "--points", str(pts))
        assert fragment in msg

    def test_build_st_config_scale_one(self, capsys):
        msg = self.check(capsys, "build", "--kind", "st-config",
                         "--scale", "1")
        assert "scale" in msg

    @pytest.mark.parametrize("band, fragment", [
        (["--lo", "x"], "--lo/--hi"), (["--lo", "2", "--hi", "1"], "--lo <=")])
    def test_build_bad_area_band(self, tmp_path, capsys, band, fragment):
        pts = tmp_path / "p.txt"
        pts.write_text("2 3\n0 0\n1 1\n2 0\n")
        msg = self.check(capsys, "build", "--kind", "triangles",
                         "--points", str(pts), *band)
        assert fragment in msg

    @pytest.mark.parametrize("kind, option", [
        ("minors", "--points"), ("triangles", "--points"),
        ("spheres", "--spheres")])
    def test_build_missing_input_file(self, capsys, kind, option):
        msg = self.check(capsys, "build", "--kind", kind)
        assert f"--kind {kind} needs {option}" in msg

    def test_bounds_sizes_and_dims_differ(self, capsys):
        msg = self.check(capsys, "bounds", "--dims", "2,2,2", "--sizes", "5,5")
        assert "--sizes has 2 values for 3 dims" in msg

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_shatter_trials_below_one(self, tmp_path, capsys, trials):
        hg = tmp_path / "h.txt"
        hg.write_text("2 2 2\n0 1\n1 0\n")
        msg = self.check(capsys, "shatter", "--hypergraph", str(hg), "--z",
                         "1", "--mode", "sampled", "--trials", trials)
        assert f"--trials {trials} is not >= 1" in msg

    @pytest.mark.parametrize("command, extra", [
        ("detect", ["--pattern", "1,1"]), ("shatter", ["--z", "1"])])
    def test_budget_below_one(self, tmp_path, capsys, command, extra):
        hg = tmp_path / "h.txt"
        hg.write_text("2 2 2\n0 1\n1 0\n")
        msg = self.check(capsys, command, "--hypergraph", str(hg), *extra,
                         "--budget", "-1")
        assert "--budget -1 is not >= 1" in msg

    def test_experiment_missing_spec(self, tmp_path, capsys):
        msg = self.check(capsys, "experiment", "--spec",
                         str(tmp_path / "absent.json"))
        assert "absent.json" in msg

    def test_experiment_malformed_json(self, tmp_path, capsys):
        sf = tmp_path / "spec.json"
        sf.write_text('{"kind": "minors", "d": 2, "sizes": [20, 40')
        self.check(capsys, "experiment", "--spec", str(sf))

    @pytest.mark.parametrize("spec, fragment", [
        ({"kind": "minors", "d": 2, "sizes": [40, 20, 80]},
         "strictly increasing"),
        ({"kind": "minors", "d": 2, "sizes": [20, 40]}, "need >= 3 sizes"),
        ({"kind": "minors", "d": 2}, "no 'sizes' field"),
        ({"kind": "minors", "d": 2, "sizes": [20, 40, 80], "colour": 1},
         "colour"),
        # specs the sweep cannot run as asked
        ({"kind": "minors", "d": 1, "sizes": [4, 8, 16]},
         "minors sweeps need d >= 2"),
        ({"kind": "spheres", "d": 4, "sizes": [10, 20, 40]},
         "spheres sweeps need d = 2 or 3"),
        ({"kind": "st-config", "d": 2, "sizes": [1, 2, 3]},
         "st-config sizes must be >= 2"),
        ({"kind": "k1uu", "d": 3, "sizes": [0, 2, 3]},
         "k1uu sizes must be >= 1"),
        ({"kind": "minors", "d": 2, "sizes": [0, 20, 40]},
         "minors sizes must be >= 1"),
        ({"kind": "partition", "d": 2, "sizes": [8, 64]},
         "partition sizes must be >= 16"),
        ({"kind": "minors", "d": 2, "sizes": [20, 40, 80], "tolerance": "x"},
         "tolerance must be a number"),
        ({"kind": "minors", "d": 2, "sizes": [20, 40, 80], "variant": "nope"},
         "unknown variant 'nope'"),
        ({"kind": "minors", "d": 2, "sizes": [20, 40, 80],
          "det_target": "bogus"}, "unknown det_target 'bogus'"),
        ({"kind": "triangles", "d": 3, "sizes": [10, 20, 30]},
         "triangles sweeps need d = 2"),
        ({"kind": "minors", "d": 2, "sizes": [20, 40, 80], "eps": "-1"},
         "eps must be >= 0"),
        ({"kind": "partition", "d": 2, "sizes": [16, 32], "r": 4,
          "seed": -1}, "seed must be >= 0"),
    ])
    def test_experiment_invalid_spec(self, tmp_path, capsys, spec, fragment):
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps(spec))
        msg = self.check(capsys, "experiment", "--spec", str(sf))
        assert fragment in msg

    def test_experiment_infinite_tolerance(self, tmp_path, capsys):
        """1e400 parses as an infinite float, which a report could not
        write as JSON."""
        sf = tmp_path / "spec.json"
        sf.write_text('{"kind": "minors", "d": 2, "sizes": [20, 40, 80], '
                      '"tolerance": 1e400}')
        msg = self.check(capsys, "experiment", "--spec", str(sf))
        assert "tolerance must be finite" in msg

    def test_experiment_kfree_budget_below_one(self, tmp_path, capsys):
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps({"kind": "minors", "d": 2,
                                  "sizes": [20, 40, 80], "kfree_budget": -1}))
        msg = self.check(capsys, "experiment", "--spec", str(sf))
        assert "kfree_budget must be >= 1" in msg

    def test_build_minors_repeated_column(self, tmp_path, capsys):
        pts = tmp_path / "p.txt"
        pts.write_text("2 3\n1 0\n0 1\n2/2 0\n")
        msg = self.check(capsys, "build", "--kind", "minors",
                         "--points", str(pts))
        assert "repeated columns" in msg

    def test_one_dimensional_minors_rejected_before_any_loop(
            self, tmp_path, capsys, monkeypatch):
        """Only isqrt(n - 1) + 1 distinct 1-columns exist, so the matrix
        generator would never finish: the spec must fail at parse time."""
        def never(*args):
            raise AssertionError("the generator ran")

        monkeypatch.setattr(experiments, "_random_matrix", never)
        monkeypatch.setattr(experiments, "_run_size", never)
        sf = tmp_path / "spec.json"
        sf.write_text(json.dumps({"kind": "minors", "d": 1,
                                  "sizes": [4, 8, 16]}))
        self.check(capsys, "experiment", "--spec", str(sf))
