"""The byte-identity corpus (`corpus.py`): every CLI invocation it lists
writes the committed exit code and output digests, so no change moves
an output, report line or exit code unnoticed."""

import pytest

import corpus

RECORDS = corpus.load()


def test_corpus_lists_the_committed_cases():
    """The table holds exactly the cases `corpus.cases` builds, in order,
    so a case cannot be dropped from one and kept in the other."""
    assert [(r["argv"], r["faults"]) for r in RECORDS] == [
        (argv, faults) for argv, faults in corpus.cases()]


# cases per test, so a failure points at a few hundred of them
SLICE = 250


@pytest.mark.parametrize("lo", range(0, len(RECORDS), SLICE))
def test_corpus_outputs_are_byte_identical(lo):
    want = RECORDS[lo:lo + SLICE]
    got = corpus.run_all([(r["argv"], r["faults"]) for r in want])
    # names each differing record's argv and changed fields
    changed = "\n".join(corpus.changes(want, got))
    assert not changed, changed
