"""Tests for the cross-check experiment module itself."""

from repro.experiments.crosscheck import CrosscheckReport, run_crosscheck


class TestCrosscheck:
    def test_clean_on_seeded_population(self):
        report = run_crosscheck(n_instances=6, seed=3, simulate=False)
        assert report.instances == 6
        assert report.clean, report.summary()

    def test_simulation_branch(self):
        report = run_crosscheck(n_instances=3, seed=4, simulate=True)
        assert report.clean, report.summary()
        assert report.simulation_outliers <= 1

    def test_summary_format(self):
        report = CrosscheckReport(instances=2, solver_disagreements=1)
        text = report.summary()
        assert "2 instances" in text and "1 solver" in text
        assert not report.clean

    def test_deterministic(self):
        a = run_crosscheck(n_instances=4, seed=9, simulate=False)
        b = run_crosscheck(n_instances=4, seed=9, simulate=False)
        assert a.summary() == b.summary()
