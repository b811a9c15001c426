"""Differential property test: ``Sandbox.execute`` against the per-record loop.

The oracle is ``tests/sandbox_reference.py``: one address draw, argument
draws and one ``LogRecord`` per call, and a shuffle of the body's name list.
The sandbox builds the same log as columns.  Both must log the same calls,
byte for byte, and leave the sandbox's generator in the same state, over
sandbox seeds, the four OS versions, clean and malware samples, and with
and without rendered arguments.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sandbox_reference import reference_execute

from repro.apilog.behavior_profiles import default_profile_library
from repro.apilog.sandbox import SUPPORTED_OS_VERSIONS, Sandbox
from repro.apilog.source_sample import SourceSample
from repro.config import CLASS_CLEAN, CLASS_MALWARE

LIBRARY = default_profile_library()


@st.composite
def samples(draw):
    label = draw(st.sampled_from([CLASS_CLEAN, CLASS_MALWARE]))
    profile = draw(st.sampled_from(LIBRARY.for_label(label, include_novel=True)))
    seed = draw(st.integers(0, 2**32 - 1))
    return SourceSample.from_profile(profile, f"{profile.name}-{seed}", random_state=seed)


@given(seed=st.integers(0, 2**63 - 1), os_version=st.sampled_from(SUPPORTED_OS_VERSIONS),
       record_args=st.booleans(), pair=st.tuples(samples(), samples()))
@settings(max_examples=60, deadline=None,
          # Any seed reproduces a divergence; shrinking one costs minutes.
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_execute_matches_the_per_record_oracle(seed, os_version, record_args, pair):
    sandbox = Sandbox(os_version=os_version, random_state=seed, record_args=record_args)
    reference = Sandbox(os_version=os_version, random_state=seed, record_args=record_args)
    for sample in pair:
        run = sandbox.execute(sample)
        expected = reference_execute(reference, sample)
        assert run.log.to_text() == expected.to_text()
        assert list(run.log.records) == expected.records
        assert run.preamble_calls == expected.preamble_calls
        assert run.sample_calls == expected.sample_calls
        assert run.log.label == expected.label
        assert run.log.sample_id == expected.sample_id
        assert run.log.os_version == os_version
    assert sandbox._rng.integers(2**63) == reference._rng.integers(2**63)
