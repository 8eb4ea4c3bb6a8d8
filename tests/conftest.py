import pytest

from planeparts import schur


@pytest.fixture
def corrupt_first_summation(monkeypatch):
    """A call that rebinds schur.verify_summation so that the first report
    it returns afterwards has one more at z^0 on its left side, and every
    later report is left as it is.  Case 0 of the battery is a
    verify_summation check, so the battery's first report fails at 0."""

    def corrupt():
        verify = schur.verify_summation
        reports = []

        def first_fails(*args, **kwargs):
            report = verify(*args, **kwargs)
            reports.append(report)
            if len(reports) > 1:
                return report
            lhs = (report.lhs[0] + 1,) + report.lhs[1:]
            return schur.IdentityReport(report.name, report.params, report.order, lhs, report.rhs)

        monkeypatch.setattr(schur, "verify_summation", first_fails)

    return corrupt
