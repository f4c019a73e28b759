"""The fabric manager's ACL policy table.

A :class:`PolicyTable` is the authoritative record of which
(src IP, dst IP) pairs an operator has blocked. The fabric manager (or
the sharded cluster's coordinator) holds one and *materialises* each
rule as a priority-above-route ``Drop`` entry at the source host's
edge switch (:func:`repro.portland.forwarding.acl_drop`). The table is
operator intent, not soft state: it survives FM restarts, and rules
are re-pushed whenever either endpoint (re-)registers — which also
covers VM migration and post-restart soft-state refresh.

The verify subsystem reads the same table: :func:`PolicyTable.blocks`
is what turns a would-be blackhole between ACL'd endpoints into a
*justified* drop, and a delivery across a blocked pair into an
``acl-leak`` violation (see ``repro.verify.walk``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PolicyRule:
    """One directional ACL: drop IPv4 traffic from ``src_ip`` to
    ``dst_ip`` at the source's edge switch."""

    src_ip: str
    dst_ip: str


class PolicyTable:
    """An ordered set of :class:`PolicyRule` with O(1) pair lookup."""

    def __init__(self) -> None:
        self._rules: dict[tuple[str, str], PolicyRule] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules.values())

    def add(self, src_ip: str, dst_ip: str) -> PolicyRule:
        """Record (and return) the rule blocking ``src_ip -> dst_ip``.
        Idempotent."""
        key = (str(src_ip), str(dst_ip))
        rule = self._rules.get(key)
        if rule is None:
            rule = self._rules[key] = PolicyRule(*key)
        return rule

    def remove(self, src_ip: str, dst_ip: str) -> PolicyRule | None:
        """Forget the rule for the pair; returns it, or None."""
        return self._rules.pop((str(src_ip), str(dst_ip)), None)

    def blocks(self, src_ip, dst_ip) -> bool:
        """Whether traffic ``src_ip -> dst_ip`` is ACL-blocked."""
        return (str(src_ip), str(dst_ip)) in self._rules

    def involving(self, ip) -> list[PolicyRule]:
        """Every rule with ``ip`` as either endpoint (re-push set on
        host (re-)registration)."""
        ip = str(ip)
        return [rule for rule in self._rules.values()
                if rule.src_ip == ip or rule.dst_ip == ip]

    @property
    def pairs(self) -> list[tuple[str, str]]:
        """All blocked (src_ip, dst_ip) pairs, insertion-ordered."""
        return list(self._rules)
