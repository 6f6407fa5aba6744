"""Kerberos-like authentication and Hadoop-style delegation tokens.

Reproduces the security environment of section V.B.2: a KDC registers
principals and hands out keytabs; authenticating with a keytab yields a TGT;
a *secure service* (an HBase cluster) verifies Kerberos credentials and issues
expiring **delegation tokens** that later RPCs present instead of Kerberos.
``UserGroupInformation`` mirrors Hadoop's UGI: the per-user credential bag
that SHC's credentials manager populates before any HBase read or write.
"""

from __future__ import annotations

import base64
import itertools
import json
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import SecurityError, TokenExpiredError
from repro.common.simclock import SimClock


@dataclass(frozen=True)
class Keytab:
    """A principal's long-lived secret, as stored in a keytab file."""

    principal: str
    secret: str


@dataclass(frozen=True)
class TicketGrantingTicket:
    """Proof of a successful Kerberos login."""

    principal: str
    issue_time: float
    expiry_time: float

    def is_expired(self, now: float) -> bool:
        return now >= self.expiry_time


class KeyDistributionCenter:
    """The KDC: principal registry + login verification."""

    def __init__(self, clock: SimClock, ticket_lifetime_s: float = 24 * 3600.0) -> None:
        self._clock = clock
        self._ticket_lifetime = ticket_lifetime_s
        self._secrets: Dict[str, str] = {}
        self._secret_counter = itertools.count(1)

    def register_principal(self, principal: str) -> Keytab:
        """Create (or rotate) a principal and return its keytab."""
        secret = f"secret-{next(self._secret_counter)}"
        self._secrets[principal] = secret
        return Keytab(principal, secret)

    def login(self, keytab: Keytab) -> TicketGrantingTicket:
        """kinit: verify the keytab and issue a TGT."""
        expected = self._secrets.get(keytab.principal)
        if expected is None:
            raise SecurityError(f"unknown principal {keytab.principal}")
        if expected != keytab.secret:
            raise SecurityError(f"bad keytab for {keytab.principal}")
        now = self._clock.now()
        return TicketGrantingTicket(keytab.principal, now, now + self._ticket_lifetime)


@dataclass(frozen=True)
class DelegationToken:
    """An expiring, serialisable credential scoped to one service."""

    token_id: int
    service: str
    owner: str
    issue_time: float
    expiry_time: float
    max_lifetime: float

    def is_expired(self, now: float) -> bool:
        return now >= self.expiry_time

    # -- wire format (section V.B.2: token serialization/deserialization) --
    def serialize(self) -> bytes:
        payload = {
            "token_id": self.token_id,
            "service": self.service,
            "owner": self.owner,
            "issue_time": self.issue_time,
            "expiry_time": self.expiry_time,
            "max_lifetime": self.max_lifetime,
        }
        return base64.b64encode(json.dumps(payload).encode("utf-8"))

    @staticmethod
    def deserialize(data: bytes) -> "DelegationToken":
        try:
            payload = json.loads(base64.b64decode(data).decode("utf-8"))
            return DelegationToken(**payload)
        except (ValueError, TypeError, KeyError) as exc:
            raise SecurityError(f"malformed delegation token: {exc}") from exc


class UserGroupInformation:
    """Hadoop-style per-user credential bag (principal + tokens by service)."""

    def __init__(self, user: str) -> None:
        self.user = user
        self._tokens: Dict[str, DelegationToken] = {}

    def add_token(self, token: DelegationToken) -> None:
        self._tokens[token.service] = token

    def get_token(self, service: str) -> Optional[DelegationToken]:
        return self._tokens.get(service)

    def tokens(self) -> Dict[str, DelegationToken]:
        return dict(self._tokens)

    def __repr__(self) -> str:
        return f"UserGroupInformation({self.user}, tokens={sorted(self._tokens)})"


class TokenAuthority:
    """The token-issuing side of one secure service (an HBase cluster)."""

    def __init__(
        self,
        service_name: str,
        kdc: KeyDistributionCenter,
        clock: SimClock,
        token_lifetime_s: float = 3600.0,
        max_lifetime_s: float = 7 * 24 * 3600.0,
    ) -> None:
        self.service_name = service_name
        self._kdc = kdc
        self._clock = clock
        self._token_lifetime = token_lifetime_s
        self._max_lifetime = max_lifetime_s
        self._ids = itertools.count(1)
        self._issued: Dict[int, DelegationToken] = {}

    def issue_token(self, keytab: Keytab) -> DelegationToken:
        """Authenticate via Kerberos and mint a delegation token."""
        tgt = self._kdc.login(keytab)
        now = self._clock.now()
        if tgt.is_expired(now):
            raise SecurityError(f"TGT for {keytab.principal} is expired")
        token = DelegationToken(
            token_id=next(self._ids),
            service=self.service_name,
            owner=keytab.principal,
            issue_time=now,
            expiry_time=now + self._token_lifetime,
            max_lifetime=now + self._max_lifetime,
        )
        self._issued[token.token_id] = token
        return token

    def renew_token(self, token: DelegationToken) -> DelegationToken:
        """Extend a token's expiry (up to its max lifetime)."""
        if token.token_id not in self._issued:
            raise SecurityError(f"token {token.token_id} was not issued by {self.service_name}")
        now = self._clock.now()
        if now >= token.max_lifetime:
            raise TokenExpiredError(
                f"token {token.token_id} passed its max lifetime; re-authenticate"
            )
        renewed = DelegationToken(
            token_id=token.token_id,
            service=token.service,
            owner=token.owner,
            issue_time=token.issue_time,
            expiry_time=min(now + self._token_lifetime, token.max_lifetime),
            max_lifetime=token.max_lifetime,
        )
        self._issued[token.token_id] = renewed
        return renewed

    def validate(self, token: Optional[DelegationToken]) -> None:
        """Gatekeeper check run on every RPC against a secure cluster."""
        if token is None:
            raise SecurityError(f"no credentials presented to {self.service_name}")
        if token.service != self.service_name:
            raise SecurityError(
                f"token for {token.service} presented to {self.service_name}"
            )
        issued = self._issued.get(token.token_id)
        if issued is None:
            raise SecurityError(f"token {token.token_id} unknown to {self.service_name}")
        if issued.is_expired(self._clock.now()):
            raise TokenExpiredError(f"token {token.token_id} is expired")


class KeytabStore:
    """Filesystem stand-in: keytab "paths" -> keytab objects.

    SHC configuration references keytabs by path (``spark.yarn.keytab``);
    deployments place the file on every node.  The store plays that role.
    """

    _store: Dict[str, Keytab] = {}

    @classmethod
    def install(cls, path: str, keytab: Keytab) -> None:
        cls._store[path] = keytab

    @classmethod
    def load(cls, path: str) -> Keytab:
        keytab = cls._store.get(path)
        if keytab is None:
            raise SecurityError(f"no keytab installed at {path!r}")
        return keytab

    @classmethod
    def clear(cls) -> None:
        cls._store.clear()
