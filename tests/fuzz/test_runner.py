"""Tests for fuzz campaigns (``repro fuzz``)."""

from repro.fuzz import run_campaign


class TestRunCampaign:
    def test_pool_failure_falls_back_to_serial(self, no_process_pool,
                                               capsys):
        result = run_campaign(count=2, seed=0, jobs=2,
                              config_labels=["PRX-LLS"], engines=False)
        assert result.parallel is False
        assert result.programs == 2
        err = capsys.readouterr().err
        assert no_process_pool in err
        assert "falling back to serial" in err
