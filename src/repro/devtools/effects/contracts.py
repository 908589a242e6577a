"""Effect contracts and the accepted-findings baseline.

Contracts are declared in ``effect_contracts.toml`` (committed next to
this module) as an array of ``[[contract]]`` tables::

    [[contract]]
    rule = "RD006"
    scope = ["repro.observe"]
    forbid = ["RNG_DRAW", "SCHEDULE"]
    exempt = ["repro.observe.manifest.verify_manifest"]
    reason = "arming observation must never perturb a run"

Fields:

* ``rule`` — the RD006-RD010 rule id violations are reported under;
* ``scope`` — dotted module prefixes whose functions are contract roots;
* ``forbid`` — effect names no root may transitively carry;
* ``exempt`` — qualname prefixes excluded from the root set (declared
  architectural exceptions, e.g. manifest *replay* deliberately re-runs
  simulations);
* ``opaque`` — qualnames treated as effect boundaries during this
  contract's reachability pass;
* ``forbid_imports`` — module prefixes no in-scope module may import
  (runtime imports only; ``TYPE_CHECKING`` blocks are ignored);
* ``substream_prefix`` — every ``derive_seed``/``.stream`` call site in
  scope must name its stream with a literal starting with this prefix;
* ``reason`` — one line echoed in every finding.

The *baseline* (``effect_baseline.toml``) lists accepted findings as
``[[accept]]`` tables keyed by ``rule`` and origin ``function`` qualname,
each with a mandatory ``reason``.  Baseline entries that match nothing
are reported as errors so the file can only shrink honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.devtools.effects.model import Effect

#: The committed default contract and baseline files.
DEFAULT_CONTRACTS_PATH = Path(__file__).with_name("effect_contracts.toml")
DEFAULT_BASELINE_PATH = Path(__file__).with_name("effect_baseline.toml")


class ContractError(ValueError):
    """Raised for an unreadable or malformed contract/baseline file."""


@dataclass(frozen=True, slots=True)
class Contract:
    """One declared effect contract (see module docstring for fields)."""

    rule_id: str
    scope: Tuple[str, ...]
    reason: str
    forbid: FrozenSet[Effect] = frozenset()
    exempt: Tuple[str, ...] = ()
    opaque: Tuple[str, ...] = ()
    forbid_imports: Tuple[str, ...] = ()
    substream_prefix: Optional[str] = None

    def in_scope(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def is_exempt(self, qualname: str) -> bool:
        return any(
            qualname == prefix or qualname.startswith(prefix + ".")
            for prefix in self.exempt
        )


@dataclass(frozen=True, slots=True)
class BaselineEntry:
    """One accepted finding: (rule, origin-function qualname, reason)."""

    rule_id: str
    function: str
    reason: str


@dataclass
class Baseline:
    """The committed accepted-findings list, with usage tracking."""

    entries: List[BaselineEntry] = field(default_factory=list)

    def accepts(self, rule_id: str, function: str) -> bool:
        return any(
            e.rule_id == rule_id and e.function == function
            for e in self.entries
        )

    def unused(self, used: Set[Tuple[str, str]]) -> List[BaselineEntry]:
        return [
            e for e in self.entries if (e.rule_id, e.function) not in used
        ]


# ----------------------------------------------------------------------
# TOML loading (tomllib on 3.11+, a restricted fallback parser on 3.10)
# ----------------------------------------------------------------------


def _parse_toml(text: str, origin: str) -> Dict[str, Any]:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python 3.10 path
        return _parse_mini_toml(text, origin)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ContractError(f"{origin}: {exc}") from exc


def _parse_mini_toml(text: str, origin: str) -> Dict[str, Any]:
    """Restricted TOML subset: ``[[table]]`` arrays of string/list keys.

    Supports exactly the shape of the contract and baseline files —
    comments, blank lines, ``[[name]]`` headers, ``key = "string"`` and
    ``key = ["a", "b"]`` — so Python 3.10 (no :mod:`tomllib`) can still
    run the lint without third-party dependencies.
    """
    import re

    result: Dict[str, Any] = {}
    current: Optional[Dict[str, Any]] = None
    array_re = re.compile(r'"((?:[^"\\]|\\.)*)"')
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            current = {}
            result.setdefault(name, []).append(current)
            continue
        if "=" in line and current is not None:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if value.startswith("["):
                current[key] = array_re.findall(value)
            elif value.startswith('"'):
                match = array_re.match(value)
                if match is None:
                    raise ContractError(
                        f"{origin}:{lineno}: unparsable value {value!r}"
                    )
                current[key] = match.group(1)
            else:
                raise ContractError(
                    f"{origin}:{lineno}: unsupported value {value!r} "
                    "(mini-TOML fallback handles strings and string lists)"
                )
            continue
        raise ContractError(f"{origin}:{lineno}: unparsable line {line!r}")
    return result


def _string_list(raw: Any, origin: str, key: str) -> Tuple[str, ...]:
    if raw is None:
        return ()
    if isinstance(raw, str):
        return (raw,)
    if isinstance(raw, list) and all(isinstance(item, str) for item in raw):
        return tuple(raw)
    raise ContractError(f"{origin}: {key} must be a string or list of strings")


def load_contracts(path: Optional[Path] = None) -> List[Contract]:
    """Load and validate contracts from ``path`` (default: committed file)."""
    from repro.devtools.rules import EFFECT_RULE_IDS

    contract_path = Path(path) if path is not None else DEFAULT_CONTRACTS_PATH
    try:
        text = contract_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"{contract_path}: unreadable: {exc}") from exc
    data = _parse_toml(text, str(contract_path))
    contracts: List[Contract] = []
    for raw in data.get("contract", []):
        origin = str(contract_path)
        rule_id = raw.get("rule")
        if rule_id not in EFFECT_RULE_IDS:
            raise ContractError(
                f"{origin}: contract rule must be one of "
                f"{sorted(EFFECT_RULE_IDS)}, got {rule_id!r}"
            )
        scope = _string_list(raw.get("scope"), origin, "scope")
        if not scope:
            raise ContractError(f"{origin}: contract {rule_id} has no scope")
        reason = raw.get("reason")
        if not isinstance(reason, str) or not reason:
            raise ContractError(
                f"{origin}: contract {rule_id} needs a reason line"
            )
        forbid_names = _string_list(raw.get("forbid"), origin, "forbid")
        try:
            forbid = frozenset(Effect(name) for name in forbid_names)
        except ValueError as exc:
            raise ContractError(
                f"{origin}: contract {rule_id}: unknown effect in "
                f"{forbid_names!r} ({sorted(e.value for e in Effect)})"
            ) from exc
        prefix = raw.get("substream_prefix")
        if prefix is not None and not isinstance(prefix, str):
            raise ContractError(
                f"{origin}: contract {rule_id}: substream_prefix must be a string"
            )
        contracts.append(
            Contract(
                rule_id=rule_id,
                scope=scope,
                reason=reason,
                forbid=forbid,
                exempt=_string_list(raw.get("exempt"), origin, "exempt"),
                opaque=_string_list(raw.get("opaque"), origin, "opaque"),
                forbid_imports=_string_list(
                    raw.get("forbid_imports"), origin, "forbid_imports"
                ),
                substream_prefix=prefix,
            )
        )
    if not contracts:
        raise ContractError(f"{contract_path}: no [[contract]] tables found")
    return contracts


def load_baseline(path: Optional[Path] = None) -> Baseline:
    """Load the accepted-findings baseline (missing file = empty)."""
    from repro.devtools.rules import EFFECT_RULE_IDS

    baseline_path = Path(path) if path is not None else DEFAULT_BASELINE_PATH
    if path is None and not baseline_path.exists():
        return Baseline()
    try:
        text = baseline_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ContractError(f"{baseline_path}: unreadable: {exc}") from exc
    data = _parse_toml(text, str(baseline_path))
    baseline = Baseline()
    for raw in data.get("accept", []):
        rule_id = raw.get("rule")
        function = raw.get("function")
        reason = raw.get("reason")
        if rule_id not in EFFECT_RULE_IDS:
            raise ContractError(
                f"{baseline_path}: accept rule must be one of "
                f"{sorted(EFFECT_RULE_IDS)}, got {rule_id!r}"
            )
        if not isinstance(function, str) or not function:
            raise ContractError(
                f"{baseline_path}: accept entry for {rule_id} needs a "
                "function qualname"
            )
        if not isinstance(reason, str) or not reason:
            raise ContractError(
                f"{baseline_path}: accept entry {rule_id} {function} "
                "needs a reason"
            )
        baseline.entries.append(BaselineEntry(rule_id, function, reason))
    return baseline
