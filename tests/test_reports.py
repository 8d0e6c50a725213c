"""One verdict rule for every check.

``Report.expect`` turns a check's own list of failing cases into its
verdict, and ``Report.include`` copies a sub-report under a prefix.  The
suite tests break exactly one check of a suite and require that every
other check of it passes with no detail: a PASS carries no failure, and a
FAIL names a case of its own check.
"""

from fractions import Fraction as F
from types import SimpleNamespace

from ddmlab import engine, examples, suites
from ddmlab.covers import Cover
from ddmlab.symbolic import WindowSet
from ddmlab.verify import FAIL, INCONCLUSIVE, PASS, Check, Report


def verdicts(report):
    return {check.name: (check.verdict, check.detail) for check in report.checks}


class TestExpect:
    def test_no_failures_pass_with_no_detail(self):
        report = Report("r")
        report.expect("holds", [])
        assert report.checks == [Check("holds", PASS, "")]

    def test_the_last_failure_is_the_detail(self):
        report = Report("r")
        report.expect("holds", ["case 1: a", "case 4: b", "case 9: c"])
        assert report.checks == [Check("holds", FAIL, "case 9: c")]
        assert not report.ok

    def test_inconclusive_cases_name_the_last_one(self):
        report = Report("r")
        report.expect("holds", [], ["index 1 off the grid", "index 2 off the grid"])
        assert report.checks == [Check("holds", INCONCLUSIVE, "index 2 off the grid")]
        assert report.ok and report.inconclusive == report.checks

    def test_a_failure_outranks_inconclusive_cases(self):
        report = Report("r")
        report.expect("holds", ["case 3: a"], ["index 1 off the grid"])
        assert report.checks == [Check("holds", FAIL, "case 3: a")]


class TestInclude:
    def test_checks_are_copied_under_the_prefix(self):
        sub = Report("sub")
        sub.expect("first", [])
        sub.expect("second", [], ["one-sided"])
        sub.expect("third", ["x"])
        report = Report("r")
        report.add("own", True)
        report.include("part", sub)
        assert report.checks == [
            Check("own", PASS, ""),
            Check("part: first", PASS, ""),
            Check("part: second", INCONCLUSIVE, "one-sided"),
            Check("part: third", FAIL, "x"),
        ]
        assert [c.name for c in sub.checks] == ["first", "second", "third"]

    def test_an_empty_sub_report_adds_nothing(self):
        report = Report("r")
        report.include("part", Report("sub"))
        assert report.checks == []


class TestNoSharedDetail:
    def test_disjointify_cost_check_keeps_no_union_failure(self, monkeypatch):
        # drop one entry of the first refined cover that has several: the
        # union changes, and the cost can only fall
        real = suites.disjointify
        dropped = []

        def lossy(cover):
            refined = real(cover)
            if not dropped and len(refined.entries) > 1:
                dropped.append(refined.entries[0])
                return Cover(refined.entries[1:], refined.base_shift, refined.cost_base)
            return refined

        monkeypatch.setattr(suites, "disjointify", lossy)
        got = verdicts(suites.suite_disjointify(7))
        verdict, detail = got["1000 covers keep their union and stay disjoint"]
        assert verdict == FAIL and detail.endswith(": union changed")
        assert got["cost never increases for nonnegative measures"] == (PASS, "")

    def test_monotonicity_axis_checks_keep_no_reindexing_failure(self, monkeypatch):
        # price the top cell of the largest slack far above any witness, so
        # only the re-indexing check fails; the flags of the grid stand
        real = suites.psi_eps_grid

        def overpriced(q, psi, phi, eps_list, i_list, cfg):
            grid = real(q, psi, phi, eps_list, i_list, cfg)
            key = (eps_list[0], 0)
            if grid.cells[key] is not None:
                grid.cells[key] = SimpleNamespace(value=F(10**6))
            return grid

        monkeypatch.setattr(suites, "psi_eps_grid", overpriced)
        got = verdicts(suites.suite_monotonicity(7))
        verdict, detail = got["re-indexed witnesses stay feasible and price identically"]
        assert verdict == FAIL and detail.endswith(": moved witness beats the optimum")
        assert got["slack axis monotone on 50 instances"] == (PASS, "")
        assert got["shift axis monotone on 50 instances"] == (PASS, "")

    def test_example_two_sandwich_keeps_no_deviation_failure(self, monkeypatch):
        # on one sample the stationary optimum is 2 and the uniform-start one
        # 3: inside the sandwich [2/3 * 3, 4/3 * 3], yet 1 apart, past the
        # deviation bound 1/2
        marker = WindowSet.cylinder(2, 0, [0, 1])
        real = engine.phi_truncated

        def priced(q, mu, cfg):
            if q is marker:
                return SimpleNamespace(value=F(2) if mu.pi[0] == F(1, 3) else F(3))
            return real(q, mu, cfg)

        monkeypatch.setattr(engine, "phi_truncated", priced)
        got = verdicts(examples.example_two(sample_sets=[WindowSet.cylinder(2, 0, [1]), marker]))
        assert got["sandwich holds on 2 sampled sets"] == (PASS, "")
        verdict, detail = got["deviation bound max(alpha0-1, 1/lambda0-1) holds on samples"]
        assert verdict == FAIL and detail == f"bound 1/2 exceeded on {marker.literal()}"
