"""Result digests of slices of the inputs of tests/digests.py, pinned.

A change that keeps every verdict, witness, oracle answer and derivation
check keeps these values.  The effort counters of sat (digests.EFFORT)
are left out, so a change to the search alone keeps them too.  A change
that alters a result on purpose updates the value here and says why.
"""

import pytest

import digests
from helpers import justification_mutations
from perfbench import inputs, workloads

SLICES = {
    # every 40th decide formula: 2,367
    "sat-decide": lambda: digests.sat_results(
        inputs.decide_inputs(1)[::40], 2),
    "sat-hard3": lambda: digests.sat_results(inputs.hard3_corpus(), 3),
    # every 10th criterion-9 formula: 897
    "sat-single": lambda: digests.sat_results(
        digests.single_texts()[::10], 1),
    "oracle": lambda: digests.oracle_results(
        inputs.decide_inputs(1)[::40]),
    # every 8th replay document: 42
    "replay": lambda: digests.replay_results(
        workloads.Replay().inputs(1)[1][::8]),
    # every 4th justification mutation, each in four systems: 3,000
    "justifications": lambda: digests.justification_results(
        justification_mutations()[::4]),
}

PINNED = {
    "sat-decide":
        "52cab22bcd00cf64c02e2691958292dad683be8e032b716490c527a2aa472003",
    "sat-hard3":
        "1924a62fe01e764c53b39d4e5bad0d458090c1bbbc8875850c60486bc19a31b4",
    "sat-single":
        "496718caad4a8734480de54838f04a795cdfb4efd345cba0c568488772cbbc2b",
    "oracle":
        "4685d46eadc756aeda00e497dbe97009d89d286d6a9949b3d63384483e792311",
    "replay":
        "31908837ab1c406718282b1216ff25868a979188a368016b75c1c3a2d7baf288",
    "justifications":
        "b5b7f374a8a5881978a078e5f16f4629fcb4f23096f01ad0fdbab1a44660b57d",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_result_digest_is_pinned(name):
    assert digests.sha256(SLICES[name]()) == PINNED[name]
