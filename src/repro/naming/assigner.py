"""Assign hostnames to every interface of a world.

The assigner walks all interfaces, determines the *naming operator* (the
AS supplying the address space, or the IXP for LAN addresses), renders a
label from that operator's :class:`~repro.naming.conventions.ConventionProfile`,
and injects the paper's data hazards:

* **sibling annotations** -- the hostname embeds a sibling ASN of the
  router's operator (Microsoft 8069/8075 in the paper's validation);
* **stale hostnames** -- the embedded ASN belongs to a previous customer
  of the supplying AS (section 6);
* **typos** -- a single Damerau-Levenshtein edit of the digit string
  (figure 3a), usually one Hoiho's guarded edit-distance rule can still
  accept, occasionally not.

The outcome records, per address, the ground truth needed by the
validation experiments: which ASN the convention *intended* to describe,
which digit string was actually embedded, and which hazards fired.

Everything but the hazards and the label decoration is a property of
the world, so a :class:`NamingPlan` derives it once per world and each
snapshot's :meth:`NamingPlan.assign` draws only its own streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.naming.asnames import as_name_tokens
from repro.naming.conventions import (
    ConventionProfile,
    EmbedKind,
    IXPNamingMode,
    Style,
    asname_label,
    geo_label,
    ip_label,
    ixp_mode_for,
    member_ixp_label,
    neighbor_label,
    operator_ixp_label,
    own_decor_label,
    plain_label,
    profile_for_as,
)
from repro.obs.trace import NULL_TRACER
from repro.topology.asgraph import _LOC_CODES, IXPSpec
from repro.topology.routers import Interface, InterfaceKind
from repro.topology.world import World
from repro.util.ipaddr import int_to_ip
from repro.util.rand import substream


@dataclass
class NamingConfig:
    """Data-quality knobs for one snapshot's hostname assignment."""

    year: float = 2020.0
    stale_rate: float = 0.02        # embedded ASN is a previous neighbor
    typo_rate: float = 0.004        # single-edit digit typo
    typo_rescuable: float = 0.75    # fraction of typos the guarded rule saves
    sibling_embed_rate: float = 0.35  # subject orgs with siblings: embed one
    near_side_hazard: bool = True   # operators that label their own side too
    # A few operators neglect reverse DNS badly: most of their ASN
    # hostnames are stale.  These suffixes yield *poor* conventions and
    # feed Table 2's "incorrect hostname" population.
    sloppy_operator_rate: float = 0.04
    sloppy_stale_rate: float = 0.35
    # IXP LANs are curated: ports get renamed when members churn, so the
    # stale/sibling rates are lower than general infrastructure zones
    # (PeeringDB training PPV was 96% in the paper).
    ixp_stale_rate: float = 0.012
    ixp_sibling_rate: float = 0.08
    # Location codes also go stale when gear moves between sites
    # (DRoP's motivation); a small fraction of names carry the wrong
    # metro code.
    misloc_rate: float = 0.02


@dataclass
class HostnameRecord:
    """Ground truth about one assigned hostname."""

    address: int
    hostname: str
    namer_asn: int                   # AS (or -ixp_id-1 for IXPs) that named it
    domain: str
    subject_asn: Optional[int]       # ASN the convention meant to describe
    embedded_text: Optional[str]     # digit string actually embedded
    stale: bool = False
    typo: bool = False
    sibling: bool = False
    embed: Optional[EmbedKind] = None
    style: Optional[Style] = None

    @property
    def embedded_asn(self) -> Optional[int]:
        """The embedded digits as an integer, when present."""
        return int(self.embedded_text) if self.embedded_text else None

    @property
    def correct(self) -> Optional[bool]:
        """Does the hostname describe the intended ASN without hazards?

        ``None`` when the hostname embeds no ASN at all.
        """
        if self.embedded_text is None or self.subject_asn is None:
            return None
        return not self.stale and str(self.subject_asn) == self.embedded_text


@dataclass
class NamingOutcome:
    """All hostname assignments for one snapshot."""

    config: NamingConfig
    records: Dict[int, HostnameRecord] = field(default_factory=dict)
    profiles: Dict[int, ConventionProfile] = field(default_factory=dict)
    ixp_modes: Dict[int, IXPNamingMode] = field(default_factory=dict)

    def hostname(self, address: int) -> Optional[str]:
        """Hostname for ``address``, if one was assigned."""
        record = self.records.get(address)
        return record.hostname if record is not None else None

    def record(self, address: int) -> Optional[HostnameRecord]:
        """Ground-truth record for ``address``."""
        return self.records.get(address)


class _HazardInjector:
    """Applies sibling/stale/typo hazards to an embedded ASN string."""

    def __init__(self, world: World, config: NamingConfig, seed: int) -> None:
        self._world = world
        self._config = config
        self._rng = substream(seed, "hazards")
        self._all_asns = world.graph.asns()
        # Deterministically mark the sloppy operators (keyed by the world
        # seed so a given operator is consistently sloppy over time).
        sloppy_rng = substream(world.seed, "sloppy")
        self._sloppy = {asn for asn in self._all_asns
                        if sloppy_rng.random() < config.sloppy_operator_rate}

    def stale_rate_for(self, namer: int) -> float:
        """Per-operator staleness (sloppy operators neglect their zones)."""
        if namer < 0:
            return self._config.ixp_stale_rate
        if namer in self._sloppy:
            return self._config.sloppy_stale_rate
        return self._config.stale_rate

    def sibling_rate_for(self, namer: int) -> float:
        """Sibling-annotation rate (lower on curated IXP LANs)."""
        if namer < 0:
            return self._config.ixp_sibling_rate
        return self._config.sibling_embed_rate

    def apply(self, subject: int, namer: int):
        """Return (digit string to embed, stale?, typo?, sibling?)."""
        rng = self._rng
        config = self._config
        embedded = subject
        stale = sibling = typo = False
        siblings = sorted(self._world.graph.orgs.siblings(subject) - {subject})
        if siblings and rng.random() < self.sibling_rate_for(namer):
            embedded = rng.choice(siblings)
            sibling = True
        if rng.random() < self.stale_rate_for(namer):
            embedded = self._stale_asn(namer, embedded, rng)
            stale = True
        text = str(embedded)
        if rng.random() < config.typo_rate:
            text = self._typo(text, rng)
            typo = True
        return text, stale, typo, sibling

    def _stale_asn(self, namer: int, current: int, rng) -> int:
        """A plausible previous neighbor of the naming AS."""
        rels = self._world.graph.relationships
        candidates = sorted((rels.customers(namer) | rels.peers(namer))
                            - {current})
        if candidates and rng.random() < 0.8:
            return rng.choice(candidates)
        for _ in range(10):
            asn = rng.choice(self._all_asns)
            if asn != current:
                return asn
        return current + 1

    def _typo(self, text: str, rng) -> str:
        """Apply one Damerau-Levenshtein edit to a digit string.

        A share ``typo_rescuable`` of typos on four or more digits keeps
        the first and last digits; the rest damage the first digit.
        """
        if len(text) < 3:
            return text + str(rng.randint(0, 9))
        rescuable = rng.random() < self._config.typo_rescuable
        if rescuable and len(text) >= 4:
            # Transpose two interior digits: first/last preserved, so the
            # paper's guarded rule still accepts the hostname as a TP.
            i = rng.randint(1, len(text) - 3)
            chars = list(text)
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
            out = "".join(chars)
            if out != text:
                return out
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        # Non-rescuable: damage the first digit (never producing a leading 0).
        first = str((int(text[0]) % 9) + 1)
        return first + text[1:]


# How a slot renders its hostname.  The case is fixed per world; the
# label and hazard draws and the year's adoption are per snapshot.
_IXP_SILENT = 0     # IXP LAN of an exchange that publishes no PTR records
_IXP = 1            # IXP LAN port labelled with the member's ASN
_SILENT = 2         # operator without PTR records
_IP = 3             # figure-3b label derived from the address
_OWN_DECOR = 4      # figure-2 label carrying the namer's own ASN
_AS_NAME = 5        # far-side label carrying the neighbor's AS name
_PLAIN = 6          # infrastructure label without AS information
_GEO = 7            # location-only label
_NEIGHBOR = 8       # neighbor-ASN convention, once adopted


class _Slot(NamedTuple):
    """The world-keyed naming facts of one interface."""

    iface: Interface
    case: int
    profile: Optional[ConventionProfile]  # the namer's; None on IXP LANs
    far_side: bool            # P2P address on another AS's router
    loc: str                  # the router's metro (the IXP's, on its LAN)
    name: str                 # the router's name
    index: int                # the router's per-AS ordinal
    port: str
    ip: str
    subject: Optional[int] = None  # ASN a neighbor-ASN or IXP label names
    # The customer slug of a far-side own-decor label, the neighbor
    # slug of an AS-name label, or the member slug of an IXP label.
    slug: Optional[str] = None
    token: Optional[str] = None    # the far-side AS-name token
    ixp: Optional[IXPSpec] = None
    mode: Optional[IXPNamingMode] = None


class NamingPlan:
    """The naming facts of one world, shared by all of its snapshots.

    Operator profiles, IXP modes and far-side AS-name tokens are keyed
    by ``world.seed``, and so is each interface's namer, render case
    and router fields.  A plan holds them all, built once per world;
    :meth:`assign` then draws only a snapshot's ``labels`` and
    ``hazards`` streams and renders its records.  A plan names the
    interfaces of its own world, and no outcome refers back to it.
    ``tracer`` times the build in a ``naming.plan`` span.
    """

    def __init__(self, world: World, tracer=NULL_TRACER) -> None:
        with tracer.span("naming.plan") as span:
            self.world = world
            self.profiles: Dict[int, ConventionProfile] = {
                asn: profile_for_as(world.seed, world.node(asn))
                for asn in world.graph.asns()}
            self.ixp_modes: Dict[int, IXPNamingMode] = {
                ixp.ixp_id: ixp_mode_for(world.seed, ixp)
                for ixp in world.graph.ixps}
            self.slots: List[_Slot] = [
                self._slot(iface) for router in world.routers()
                for iface in router.interfaces]
            span.set(interfaces=len(self.slots))

    def _slot(self, iface: Interface) -> _Slot:
        world = self.world
        router = iface.router
        fields = dict(name=router.name, index=router.index,
                      port=iface.port, ip=iface.ip)
        if iface.kind is InterfaceKind.IXP_LAN:
            ixp = world.graph.ixps[iface.ixp_id]
            mode = self.ixp_modes[ixp.ixp_id]
            return _Slot(
                iface, _IXP_SILENT if mode is IXPNamingMode.NONE else _IXP,
                None, False, ixp.slug.split("-")[0], subject=router.asn,
                slug=world.node(router.asn).slug, ixp=ixp, mode=mode,
                **fields)

        profile = self.profiles[iface.supplier_asn]
        namer = profile.asn
        far_side = iface.kind is InterfaceKind.P2P and router.asn != namer
        embed = profile.embed
        subject = slug = token = None
        if embed is EmbedKind.NONE:
            case = _SILENT
        elif embed is EmbedKind.IP_DERIVED:
            case = _IP
        elif embed is EmbedKind.OWN_DECOR:
            case = _OWN_DECOR
            if far_side:
                slug = world.node(router.asn).slug[:3]
        elif embed is EmbedKind.NAME and far_side:
            # Operators use one consistent name per neighbor: derive
            # the token from a stream keyed by (operator, neighbor).
            case = _AS_NAME
            slug = world.node(router.asn).slug
            token = substream(world.seed, "asname", namer,
                              router.asn).choice(as_name_tokens(slug))
        elif embed is EmbedKind.NAME:
            case = _PLAIN
        elif embed is EmbedKind.GEO:
            case = _GEO
        else:
            case = _NEIGHBOR
            if far_side:
                subject = router.asn
            elif iface.kind is InterfaceKind.P2P and profile.names_near_side:
                # A candidate for the near-side hazard.
                subject = iface.neighbor_asn
        return _Slot(iface, case, profile, far_side, router.loc,
                     subject=subject, slug=slug, token=token, **fields)

    def assign(self, seed: int,
               config: Optional[NamingConfig] = None) -> NamingOutcome:
        """Name every interface of the world for one snapshot.

        ``seed`` keys the snapshot's ``labels`` and ``hazards`` streams,
        drawn in interface order.  Returns the snapshot's records and
        leaves the world as it was.
        """
        config = config or NamingConfig()
        outcome = NamingOutcome(config=config, profiles=dict(self.profiles),
                                ixp_modes=dict(self.ixp_modes))
        hazards = _HazardInjector(self.world, config, seed)
        rng = substream(seed, "labels")
        records = outcome.records
        for slot in self.slots:
            record = _render(slot, hazards, config, rng)
            if record is not None:
                records[record.address] = record
        return outcome


def assign_hostnames(world: World, seed: int,
                     config: Optional[NamingConfig] = None) -> NamingOutcome:
    """Assign hostnames to every interface in ``world``.

    ``seed`` keys the snapshot-specific randomness (hazards, decoration);
    the per-operator profiles are keyed by ``world.seed`` so operators are
    consistent across snapshots of the same world.  Naming several
    snapshots of one world, build one :class:`NamingPlan` and call its
    :meth:`~NamingPlan.assign` per snapshot.
    """
    return NamingPlan(world).assign(seed, config)


def host_hostname(world: World, address: int, outcome: NamingOutcome,
                  seed: int) -> Optional[HostnameRecord]:
    """Hostname for a non-router (destination host) address, if any.

    Consumer access networks with IP-derived conventions publish PTR
    records for end-host space; infrastructure operators generally do not.
    The record is memoised into ``outcome``.
    """
    existing = outcome.records.get(address)
    if existing is not None:
        return existing
    origin = world.origin(address)
    if origin <= 0:
        return None
    profile = outcome.profiles.get(origin)
    if profile is None or profile.embed is not EmbedKind.IP_DERIVED:
        return None
    rng = substream(seed, "host", address)
    label = ip_label(int_to_ip(address), rng)
    record = HostnameRecord(
        address=address, hostname="%s.%s" % (label, profile.domain),
        namer_asn=origin, domain=profile.domain, subject_asn=None,
        embedded_text=None, embed=EmbedKind.IP_DERIVED)
    outcome.records[address] = record
    return record


def _wrong_loc(current: str, rng) -> str:
    """A different location code (gear moved, name not updated)."""
    for _ in range(5):
        candidate = rng.choice(_LOC_CODES)
        if candidate != current:
            return candidate
    return current


def _render(slot: _Slot, hazards: _HazardInjector, config: NamingConfig,
            rng) -> Optional[HostnameRecord]:
    """Render one interface's hostname, or None for no PTR record."""
    case = slot.case
    if case == _IXP_SILENT:
        return None
    if case == _IXP:
        return _ixp_record(slot, hazards)

    loc = slot.loc
    if rng.random() < config.misloc_rate:
        loc = _wrong_loc(loc, rng)
    profile = slot.profile
    if case == _SILENT:
        return None
    if case == _IP:
        label = ip_label(slot.ip, rng)
    elif case == _OWN_DECOR:
        # The convention describes the supplying AS itself (figure 2):
        # the embedded ASN is the namer's, whatever router it sits on.
        label = own_decor_label(profile, profile.asn, loc, slot.name,
                                slot.port, slot.slug, slot.index)
        return _record(slot, label, subject=profile.asn,
                       embedded=str(profile.asn))
    elif case == _AS_NAME:
        label = asname_label(slot.slug, loc, slot.index, rng,
                             token=slot.token)
    elif case == _GEO:
        label = geo_label(loc, slot.name, slot.port, slot.index)
    elif (case == _NEIGHBOR and slot.subject is not None
          and profile.embeds_asn_in(config.year)
          and (slot.far_side
               or (config.near_side_hazard and rng.random() < 0.5))):
        # Far side: the hostname describes the router's operator.  Near
        # side: the operator labels its own side of the link with the
        # neighbor ASN, so the hostname names an AS that does not
        # operate the router.
        text, stale, typo, sibling = hazards.apply(slot.subject,
                                                   profile.asn)
        unit = slot.index if slot.far_side else slot.index + 2
        label = neighbor_label(profile, text, loc, slot.port, unit, rng)
        return _record(slot, label, subject=slot.subject, embedded=text,
                       stale=stale, typo=typo, sibling=sibling)
    else:
        label = plain_label(loc, slot.name, slot.port, rng.random())
    return _record(slot, label, subject=None, embedded=None)


def _ixp_record(slot: _Slot, hazards: _HazardInjector) -> HostnameRecord:
    """Label a member port on an IXP peering LAN."""
    ixp = slot.ixp
    member = slot.subject
    namer = -ixp.ixp_id - 1
    text, stale, typo, sibling = hazards.apply(member, namer)
    if slot.mode is IXPNamingMode.MEMBER:
        label = member_ixp_label(slot.slug, text, member % 3)
    else:
        label = operator_ixp_label(slot.mode, text, slot.loc, slot.index)
    return HostnameRecord(
        address=slot.iface.address, hostname="%s.%s" % (label, ixp.domain),
        namer_asn=namer, domain=ixp.domain, subject_asn=member,
        embedded_text=text, stale=stale, typo=typo, sibling=sibling,
        embed=EmbedKind.NEIGHBOR_ASN, style=None)


def _record(slot: _Slot, label: str, subject: Optional[int],
            embedded: Optional[str], stale: bool = False, typo: bool = False,
            sibling: bool = False) -> HostnameRecord:
    profile = slot.profile
    # Positional, in field order: a keyword call costs a third more here,
    # once per named interface per snapshot.
    return HostnameRecord(
        slot.iface.address, "%s.%s" % (label, profile.domain), profile.asn,
        profile.domain, subject, embedded, stale, typo, sibling,
        profile.embed,
        profile.style if profile.embed is EmbedKind.NEIGHBOR_ASN else None)
