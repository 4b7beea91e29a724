"""The bundled reference examples re-checked end to end."""

from __future__ import annotations

from wlpcheck import CheckConfig, verify_all
from wlpcheck.specfile import load_corpus_entry
from wlpcheck.verify import verify_entry


def test_every_corpus_entry_passes():
    verifications = verify_all(CheckConfig())
    assert len(verifications) == 4
    for verification in verifications:
        failed = [o for o in verification.outcomes if not o.passed]
        assert not failed, (verification.entry_name, failed)
        assert verification.passed


def test_verification_checks_cover_the_expectations():
    entry = load_corpus_entry("three-squares")
    verification = verify_entry(entry, CheckConfig())
    names = {o.name for o in verification.outcomes}
    assert "hilbert" in names
    assert "socle_degree" in names
    assert "wlp" in names
    assert "slp" in names
    assert "splitting_shifts" in names
    assert "shift_sum" in names
    assert "prediction_agrees" in names


def test_tampered_expectation_is_caught():
    entry = load_corpus_entry("three-squares")
    wrong = dict(entry.expect)
    wrong["hilbert"] = [1, 3, 3, 2]
    tampered = entry._replace(expect=wrong)
    verification = verify_entry(tampered, CheckConfig())
    assert not verification.passed
    bad = [o for o in verification.outcomes if not o.passed]
    assert any(o.name == "hilbert" for o in bad)


def test_tampered_rank_table_is_caught():
    entry = load_corpus_entry("four-general-cubes")
    wrong = dict(entry.expect)
    wrong["general_multiplier_rank"] = 2
    tampered = entry._replace(expect=wrong)
    verification = verify_entry(tampered, CheckConfig())
    assert not verification.passed


def test_four_variable_entry_skips_splitting_checks():
    entry = load_corpus_entry("four-variable-cubes")
    verification = verify_entry(entry, CheckConfig())
    names = {o.name for o in verification.outcomes}
    assert "splitting_shifts" not in names
    assert verification.passed
