"""Synthetic mixed-traffic generation for load-testing the scoring service.

Production malware scorers see three kinds of traffic: clean software,
ordinary malware, and adversarially-perturbed malware built to evade the
detector.  :class:`LoadGenerator` replays exactly that mix against a
:class:`~repro.serving.service.ScoringService`:

* **clean** / **malware** requests are fresh test-distribution samples drawn
  from the corpus generator and executed in the multi-OS sandbox into full
  :class:`~repro.apilog.log_format.ApiLog` traces — they exercise the whole
  ``log → features → verdict`` path;
* **adversarial** requests are JSMA-perturbed feature vectors from the
  grey-box attack at the paper's (θ, γ) operating point — they arrive
  already featurised, as evasion traffic does after perturbation.

Everything is deterministic given ``(context, seed)``, and
:func:`replay` pushes a generated stream through the service's
micro-batcher at a configurable request rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CLASS_CLEAN, CLASS_MALWARE
from repro.apilog.sandbox import SUPPORTED_OS_VERSIONS, Sandbox
from repro.exceptions import ServingError
from repro.experiments.context import ExperimentContext
from repro.serving.service import ScoringRequest, ScoringService, Verdict

#: The request kinds a traffic mix is made of, in mix-fraction order.
TRAFFIC_KINDS = ("clean", "malware", "adversarial")


@dataclass(frozen=True)
class TrafficMix:
    """Fractions of clean / malware / adversarial requests in the stream."""

    clean: float = 0.5
    malware: float = 0.4
    adversarial: float = 0.1

    def __post_init__(self) -> None:
        fractions = (self.clean, self.malware, self.adversarial)
        if any(fraction < 0 for fraction in fractions):
            raise ServingError(f"traffic fractions must be non-negative, got {fractions}")
        if sum(fractions) <= 0:
            raise ServingError("traffic mix must have a positive total fraction")

    def probabilities(self) -> np.ndarray:
        """The mix normalised to a probability vector over :data:`TRAFFIC_KINDS`."""
        raw = np.array([self.clean, self.malware, self.adversarial], dtype=np.float64)
        return raw / raw.sum()

    @classmethod
    def parse(cls, text: str) -> "TrafficMix":
        """Parse a ``clean,malware,adversarial`` fraction triple (CLI form)."""
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != 3:
            raise ServingError(
                f"expected 'clean,malware,adversarial' fractions, got {text!r}")
        try:
            clean, malware, adversarial = (float(part) for part in parts)
        except ValueError:
            raise ServingError(f"traffic fractions must be numbers, got {text!r}") from None
        return cls(clean=clean, malware=malware, adversarial=adversarial)


class LoadGenerator:
    """Deterministic scenario-diverse request streams for one context.

    Parameters
    ----------
    context:
        The shared experiment state supplying the corpus generator, the
        defender pipeline and (for adversarial traffic) the grey-box
        adversarial examples.
    mix:
        Traffic composition (defaults to 50% clean / 40% malware / 10%
        adversarial).
    seed:
        Load-generator seed; independent of the context's master seed so
        several distinct streams can replay against the same model.
    theta / gamma:
        Operating point of the JSMA perturbations behind adversarial
        requests (paper defaults θ=0.1, γ=0.02).
    """

    def __init__(self, context: ExperimentContext, mix: Optional[TrafficMix] = None,
                 seed: int = 0, theta: float = 0.1, gamma: float = 0.02) -> None:
        self.context = context
        self.mix = mix if mix is not None else TrafficMix()
        self.seed = int(seed)
        self.theta = float(theta)
        self.gamma = float(gamma)
        self._epoch = 0

    def _adversarial_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` JSMA-perturbed feature rows (with replacement)."""
        dataset = self.context.greybox_adversarial(theta=self.theta, gamma=self.gamma)
        indices = rng.integers(0, dataset.n_samples, size=n)
        return dataset.features[indices]

    def _sandboxed_logs(self, n: int, label: int, kind: str,
                        rng: np.random.Generator) -> List:
        """Execute ``n`` fresh test-distribution samples into full API logs."""
        samples = self.context.generator.generate_source_samples(
            n, label, source="test",
            rng_name=f"loadgen:{self.seed}:{self._epoch}:{kind}")
        logs = []
        for sample in samples:
            os_version = SUPPORTED_OS_VERSIONS[int(rng.integers(len(SUPPORTED_OS_VERSIONS)))]
            sandbox = Sandbox(os_version=os_version,
                              random_state=int(rng.integers(2**31 - 1)),
                              record_args=False)
            logs.append(sandbox.execute(sample).log)
        return logs

    def generate(self, n_requests: int) -> List[ScoringRequest]:
        """Generate a deterministic stream of ``n_requests`` mixed requests.

        Request ids encode the kind (``clean-...``, ``malware-...``,
        ``adv-...``) so replay results can be sliced per scenario.
        """
        if n_requests < 1:
            raise ServingError(f"n_requests must be >= 1, got {n_requests}")
        rng = np.random.default_rng((self.seed, self._epoch))
        kinds = rng.choice(len(TRAFFIC_KINDS), size=n_requests,
                           p=self.mix.probabilities())
        n_clean = int(np.sum(kinds == 0))
        n_malware = int(np.sum(kinds == 1))
        n_adversarial = int(np.sum(kinds == 2))

        queues = {
            0: self._sandboxed_logs(n_clean, CLASS_CLEAN, "clean", rng) if n_clean else [],
            1: self._sandboxed_logs(n_malware, CLASS_MALWARE, "malware", rng) if n_malware else [],
            2: list(self._adversarial_rows(n_adversarial, rng)) if n_adversarial else [],
        }
        requests: List[ScoringRequest] = []
        cursors = {0: 0, 1: 0, 2: 0}
        for index, kind in enumerate(kinds):
            kind = int(kind)
            payload = queues[kind][cursors[kind]]
            cursors[kind] += 1
            requests.append(ScoringRequest(
                request_id=f"{'adv' if kind == 2 else TRAFFIC_KINDS[kind]}-"
                           f"{self._epoch}-{index:06d}",
                payload=payload))
        self._epoch += 1
        return requests

    def arrival_times(self, n_requests: int, rate_per_s: float) -> np.ndarray:
        """Poisson-process arrival offsets (seconds) for ``n_requests``.

        :func:`replay` samples the same schedule when given ``rate_per_s``
        and this generator's seed.
        """
        return _poisson_offsets(n_requests, rate_per_s, self.seed)


def _poisson_offsets(n_requests: int, rate_per_s: float, seed: int) -> np.ndarray:
    """Cumulative Poisson-process arrival offsets (seconds)."""
    if rate_per_s <= 0:
        raise ServingError(f"rate_per_s must be positive, got {rate_per_s}")
    rng = np.random.default_rng((seed, 104729, n_requests))
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n_requests))


def replay(service: ScoringService, requests: Sequence[ScoringRequest],
           rate_per_s: Optional[float] = None,
           seed: int = 0,
           progress: Optional[Callable[[dict], None]] = None) -> List[Verdict]:
    """Replay a request stream through the service's micro-batcher.

    With ``rate_per_s`` (arrivals sampled like
    :meth:`LoadGenerator.arrival_times`, varied by ``seed``) the stream is
    paced like a Poisson arrival process — the service's latency numbers
    then include genuine queueing delay, and the pacing loop wakes up early
    whenever the service's flush deadline falls before the next arrival, so
    ``max_delay_ms`` is honoured even at request rates slower than the SLO.
    Otherwise requests are pushed back-to-back as fast as the service
    accepts them.  Pacing reads ``time.perf_counter``, the service's
    default clock.  Returns verdicts in completion order (one per request).

    ``progress``, if given, is called after every flush that produced
    verdicts with ``{"new_verdicts": [...], "n_done": int,
    "n_expected": int, "elapsed_s": float}`` — the same shape the fleet
    dispatcher reports, so one live-dashboard publisher serves both paths.
    """
    offsets = (_poisson_offsets(len(requests), rate_per_s, seed)
               if rate_per_s is not None else None)
    verdicts: List[Verdict] = []
    start = time.perf_counter()

    def collect(fresh: List[Verdict]) -> None:
        verdicts.extend(fresh)
        if progress is not None and fresh:
            progress({"new_verdicts": fresh, "n_done": len(verdicts),
                      "n_expected": len(requests),
                      "elapsed_s": time.perf_counter() - start})

    for index, request in enumerate(requests):
        if offsets is not None:
            arrival = start + offsets[index]
            while True:
                deadline = service.deadline
                wake = arrival if deadline is None else min(arrival, deadline)
                remaining = wake - time.perf_counter()
                if remaining > 0:
                    time.sleep(remaining)
                collect(service.poll())
                if wake >= arrival:
                    break
        collect(service.submit(request))
    collect(service.drain())
    return verdicts
