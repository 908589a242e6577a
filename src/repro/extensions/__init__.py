"""Extensions beyond the paper's evaluated system.

The paper closes several threads with "future work"; this subpackage
implements them on top of the reproduced core so they can be measured
with the same harness:

* :mod:`repro.extensions.adaptive_search` — adaptive k-parallel probing
  (§6.2: double the probe rate when successive waves return nothing),
  as a wave-width rule the core probe loop asks.
* :mod:`repro.extensions.detection` — malicious-peer detection from pong
  provenance (§6.4: flag sources whose shared entries keep turning out
  dead or that only ever advertise each other), with blacklisting wired
  into the core import paths via the ``GuessPeer.defense`` hook.
* :mod:`repro.extensions.selfish` — the §3.3 selfish-peer threat model
  (probe everyone at once) and the probe-payment budget proposed to
  deter it.

Everything here is explicitly an *extension*: the experiment modules for
the paper's figures never import it.
"""

from repro.extensions.adaptive_search import (
    EscalatingWidth,
    execute_adaptive_query,
)
from repro.extensions.detection import DefenseConfig, PongDefense
from repro.extensions.selfish import ProbeBudget, execute_selfish_query
from repro.extensions.selfish_sim import SelfishGuessSimulation, SelfishReport

__all__ = [
    "EscalatingWidth",
    "execute_adaptive_query",
    "DefenseConfig",
    "PongDefense",
    "ProbeBudget",
    "execute_selfish_query",
    "SelfishGuessSimulation",
    "SelfishReport",
]
