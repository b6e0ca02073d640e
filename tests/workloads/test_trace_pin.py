"""Pins every workload's committed stack trace and the BDGS vocabulary.

Each digest is a sha256 over the committed phase records of one run at
``RunContext(scale=0.1, seed=42)``: kind, name, worker, record and byte
counts, and the sorted details, followed by the run's sorted self-check
values.  A change to data generation, to a stack engine's byte sizing or
to a workload's algorithm moves a digest here, long before it would show
up as a drift of the 45-metric matrix.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datagen.text import Vocabulary
from repro.workloads import SUITE, RunContext, workload_by_name

CTX = RunContext(scale=0.1, seed=42)

#: sha256 prefixes of each workload's committed trace and checks.
TRACE_DIGESTS = {
    "H-Sort": "bdc1db9b898ca889",
    "S-Sort": "2da8d2b8bd934a9a",
    "H-WordCount": "fba406765569f1b3",
    "S-WordCount": "abcee6c7eea106b8",
    "H-Grep": "26564b09830efe55",
    "S-Grep": "63869213a983b711",
    "H-Bayes": "992d75bb1146a729",
    "S-Bayes": "00f34f1343da937f",
    "H-Kmeans": "6be2ed3db197b85f",
    "S-Kmeans": "86d96a18b78214ef",
    "H-PageRank": "dd8fcf804342a4be",
    "S-PageRank": "921f26b2a621d2a8",
    "H-Projection": "5cf53bd08f419399",
    "S-Projection": "57f45af8db374b3f",
    "H-Filter": "844c3d3311f014b2",
    "S-Filter": "86111b6550abdda1",
    "H-OrderBy": "7b8025dad3b4e002",
    "S-OrderBy": "7ebc0b2c3b93f38f",
    "H-CrossProduct": "a5ea052e1eae0325",
    "S-CrossProduct": "b453d90c0fa6ffaa",
    "H-Union": "e3ae4e4f4940139b",
    "S-Union": "51b428215e2a6ea7",
    "H-Difference": "fd494c643541a218",
    "S-Difference": "6959300bcc1ddf51",
    "H-Aggregation": "5d481ca8d92418c0",
    "S-Aggregation": "4fd3cffb9ba225bb",
    "H-JoinQuery": "412454f4e9dbe377",
    "S-JoinQuery": "13fd7cf5e1d5c224",
    "H-AggQuery": "5dc3bcd5d8ecd57c",
    "S-AggQuery": "b69afd5779a03ee7",
    "H-SelectQuery": "7195d66f7a565144",
    "S-SelectQuery": "587220af8ecef0fe",
}

#: sha256 prefixes of ``"\n".join(Vocabulary(5000, seed).words)``.
VOCABULARY_DIGESTS = {
    42: "b653040c58f7707c",
    7: "dc040994a0eeb574",
}


def run_digest(run) -> str:
    digest = hashlib.sha256()
    for r in run.trace.committed_records:
        digest.update(
            repr(
                (
                    r.kind.value,
                    r.name,
                    r.worker,
                    r.records_in,
                    r.bytes_in,
                    r.records_out,
                    r.bytes_out,
                    sorted(r.details.items()),
                )
            ).encode()
        )
    digest.update(repr(sorted(run.checks.items())).encode())
    return digest.hexdigest()[:16]


def test_pins_cover_the_suite():
    assert set(TRACE_DIGESTS) == {w.name for w in SUITE}


@pytest.mark.parametrize("name", [w.name for w in SUITE])
def test_committed_trace_is_pinned(name):
    assert run_digest(workload_by_name(name).run(CTX)) == TRACE_DIGESTS[name]


@pytest.mark.parametrize("seed", sorted(VOCABULARY_DIGESTS))
def test_vocabulary_words_are_pinned(seed):
    words = "\n".join(Vocabulary(5000, seed).words).encode()
    assert hashlib.sha256(words).hexdigest()[:16] == VOCABULARY_DIGESTS[seed]
