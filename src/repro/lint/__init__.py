"""Domain-aware static analysis for the GenDPR reproduction.

The chaos and equivalence suites *test* the repo's trust invariants;
this package *proves the easy half statically*, on every commit:

* **R1 enclave-purity** — attested enclave code may not reach ambient
  nondeterminism or I/O (clocks, ``random``, ``os.urandom``, files,
  sockets, stdout); randomness must come from :mod:`repro.crypto.rng`.
* **R2 determinism** — protocol/statistics code may not let set
  iteration order, ``id()`` or the wall clock into decisions, which
  would break the bit-identical run-to-run and fault-free/faulted
  guarantees.
* **R3 crypto-misuse** — digests/MACs/measurements compare via
  ``hmac.compare_digest``; no literal keys/nonces; no digest
  truncation.
* **R4 lock-discipline** — the ``with``-nesting acquisition graph over
  the network/resilience layers must stay acyclic (deadlock freedom of
  the service's concurrent studies); :mod:`repro.lint.runtime` extends
  the check to dynamically observed orders.
* **R5 error-taxonomy** — every ``raise`` in protocol/net/TEE code is
  a :mod:`repro.errors` subclass, keeping supervisor failure
  classification total.

Entry points: ``repro lint [paths]`` (human/JSON reports, baseline,
``lint.toml`` scope map) and the :func:`run_lint` library API.
"""

from .baseline import Baseline
from .config import (
    DEFAULT_SCOPES,
    LintConfig,
    ScopeMap,
    find_config,
    load_config,
)
from .engine import LintResult, run_lint
from .findings import Finding, Severity
from .reporting import human_report, json_report
from .rules import REGISTRY, ModuleInfo, Rule, register, rule_catalog
from .runtime import OrderedLockFactory, combined_cycles

__all__ = [
    "Baseline",
    "DEFAULT_SCOPES",
    "Finding",
    "LintConfig",
    "LintResult",
    "ModuleInfo",
    "OrderedLockFactory",
    "REGISTRY",
    "Rule",
    "ScopeMap",
    "Severity",
    "combined_cycles",
    "find_config",
    "human_report",
    "json_report",
    "load_config",
    "register",
    "rule_catalog",
    "run_lint",
]
