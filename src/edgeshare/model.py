"""Domain model: providers, applications, scenarios and allocations.

A scenario describes N providers that each own a block of applications.
Every application requests an amount of each of K resource types; every
provider holds a capacity vector over the same K types.  An allocation says
how much of resource k provider n hands to application i.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_PLAYERS = 24
# The most request entries (applications times resources, N * m * K for m
# applications per player) a scenario may hold.  run --method fast peaked at
# 666 MB resident on 300,000 sigmoid entries (N = 24, m = 1562, K = 8; 2
# cores), the most of the shapes measured, and at 872 MB on 384,000.
MAX_REQUEST_ENTRIES = 300_000

REQUEST_LOW = 1.0
REQUEST_HIGH = 10.0
CAPACITY_SPREAD = 0.5  # capacities drawn from [(1-s)*demand, (1+s)*demand]

SCENARIO_FORMAT_VERSION = 1


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    """A read-only C-contiguous copy: the caller's array stays its own."""
    out = np.array(a, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class UtilitySpec:
    """Per-player utility shape for its native applications.

    kind is "linear" (value c_ik per delivered unit) or "sigmoid"
    (logistic satisfaction centered at the request, steepness mu).
    == is identity, since coeffs is an array; a scenario's specs are
    compared through scenario_to_json.
    """

    kind: str
    mu: float | None = None
    coeffs: np.ndarray | None = None  # (M_n, K), linear only

    def __post_init__(self):
        if self.kind not in ("linear", "sigmoid"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.kind == "sigmoid":
            if self.mu is None or not math.isfinite(self.mu) or self.mu <= 0:
                raise ValueError(f"sigmoid utility needs mu finite and > 0, got {self.mu}")
            if self.coeffs is not None:
                raise ValueError("sigmoid utility takes no coefficients")
        else:
            if self.mu is not None:
                raise ValueError("linear utility takes no mu")
            if self.coeffs is not None:
                object.__setattr__(self, "coeffs", _frozen(self.coeffs))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable problem instance shared by every pipeline stage.

    Arrays use a flat application axis: requests[i] is application i's
    request vector and owner[i] the player that brought it.  Player n's
    native block is contiguous and ordered by player index.  == and hash
    are by identity, since the fields are arrays; content is compared
    through scenario_to_json or digest().
    """

    n_players: int
    n_resources: int
    capacities: np.ndarray  # (N, K)
    requests: np.ndarray  # (M, K) stacked over all players
    owner: np.ndarray  # (M,) int, owner[i] = player owning app i
    utilities: tuple[UtilitySpec, ...]  # one per player
    w: np.ndarray  # (N,) own-utility weights
    zeta: np.ndarray  # (N,) sharing-income weights
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "capacities", _frozen(self.capacities))
        object.__setattr__(self, "requests", _frozen(self.requests))
        object.__setattr__(self, "owner", _frozen(self.owner, dtype=int))
        object.__setattr__(self, "w", _frozen(self.w))
        object.__setattr__(self, "zeta", _frozen(self.zeta))
        object.__setattr__(self, "utilities", tuple(self.utilities))
        problems = validate_scenario(self)
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(problems))

    # -- derived shapes ---------------------------------------------------

    @property
    def m_total(self) -> int:
        return self.requests.shape[0]

    @property
    def m_per_player(self) -> tuple[int, ...]:
        return tuple(int(np.sum(self.owner == n)) for n in range(self.n_players))

    def apps_of(self, n: int) -> np.ndarray:
        """Indices of player n's native applications."""
        return np.flatnonzero(self.owner == n)

    def local_axes(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """A coalition's own coordinates: its members (mask's bits below
        n_players) and their applications, ascending; row t of its
        (|S|, M_S, K) allocation is members[t], column i apps[i]."""
        member = (mask >> np.arange(self.n_players)) & 1 == 1
        return np.flatnonzero(member), np.flatnonzero(member[self.owner])

    def coeff_matrix(self) -> np.ndarray:
        """Linear coefficients stacked to (M, K); ones by default, zeros
        are meaningless for sigmoid rows (never read there)."""
        c = np.ones((self.m_total, self.n_resources))
        for n, spec in enumerate(self.utilities):
            if spec.kind == "linear" and spec.coeffs is not None:
                c[self.owner == n] = spec.coeffs
        return c

    def digest(self) -> str:
        """Content hash of the scenario file's text as load_scenario read
        it, else of scenario_to_json.  The recorded digest is no field, so
        repr ignores it and a dataclasses.replace copy hashes its own
        serialization."""
        return self.__dict__.get("_text_digest") or text_digest(scenario_to_json(self))


def validate_scenario(s: Scenario) -> list[str]:
    """Check every structural invariant and return the violations, empty
    when there are none."""
    problems: list[str] = []
    n, k = s.n_players, s.n_resources
    if not (1 <= n <= MAX_PLAYERS):
        problems.append(f"n_players must be in [1, {MAX_PLAYERS}], got {n}")
    if k < 1:
        problems.append(f"n_resources must be >= 1, got {k}")
    if s.capacities.shape != (n, k):
        problems.append(f"capacities shape {s.capacities.shape} != {(n, k)}")
    if s.requests.ndim != 2 or s.requests.shape[1] != k:
        problems.append(f"requests shape {s.requests.shape} incompatible with K={k}")
    if s.requests.size > MAX_REQUEST_ENTRIES:
        problems.append(f"at most {MAX_REQUEST_ENTRIES} request entries (applications times "
                        f"resources) supported, got {s.requests.size}")
    if s.owner.shape != (s.requests.shape[0],):
        problems.append("owner must align with requests rows")
    elif 1 <= n <= MAX_PLAYERS:  # per-player checks, O(n): only for an n in range
        if s.owner.min(initial=0) < 0 or s.owner.max(initial=0) >= n:
            problems.append("owner indices out of range")
        elif not np.all(np.diff(s.owner) >= 0):
            problems.append("applications must be grouped by owner in player order")
        elif any(m == 0 for m in s.m_per_player):
            problems.append("every player must own at least one application")
    if len(s.utilities) != n:
        problems.append(f"need {n} utility specs, got {len(s.utilities)}")
    else:
        for i, spec in enumerate(s.utilities):
            if spec.kind == "linear" and spec.coeffs is not None:
                want = (int(np.sum(s.owner == i)), k)
                if spec.coeffs.shape != want:
                    problems.append(f"player {i} coeffs shape {spec.coeffs.shape} != {want}")
                elif np.any(spec.coeffs < 0) or not np.all(np.isfinite(spec.coeffs)):
                    problems.append(f"player {i} coeffs must be finite and >= 0")
    for name, arr in (("capacities", s.capacities), ("requests", s.requests)):
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} must be finite")
        elif np.any(arr < 0):
            problems.append(f"{name} must be nonnegative")
    for name, arr in (("w", s.w), ("zeta", s.zeta)):
        if arr.shape != (n,):
            problems.append(f"{name} must have shape ({n},)")
        elif not np.all(np.isfinite(arr)) or np.any(arr < 0):
            problems.append(f"{name} must be finite and >= 0")
    if not problems:  # the solvers sum and scale these: finite entries can still overflow
        with np.errstate(over="ignore"):
            for name, arr in (("capacities", s.capacities), ("requests", s.requests)):
                if not np.all(np.isfinite(arr.sum(axis=0))):
                    problems.append(f"{name} must have finite totals per resource")
            for i, spec in enumerate(s.utilities):
                if spec.kind == "sigmoid" and not np.isfinite(
                        spec.mu * s.requests[s.owner == i].max()):
                    problems.append(f"player {i} mu times its largest request must be finite")
            # each player's largest attainable utility: a logistic term is
            # at most 1, a linear one its coefficient times its request
            most = k * np.bincount(s.owner, minlength=n).astype(float)
            linear = [i for i, spec in enumerate(s.utilities) if spec.kind == "linear"]
            if linear:
                most[linear] = np.bincount(s.owner, (s.coeff_matrix() * s.requests).sum(axis=1),
                                           minlength=n)[linear]
            for i in np.flatnonzero(~np.isfinite(most)):
                problems.append(f"player {i} coefficients times requests must have a finite total")
            if not problems and not np.isfinite((np.maximum(s.w, s.zeta) * most).sum()):
                problems.append("the weighted utility bound sum_p max(w_p, zeta_p) * U_p, "
                                "U_p player p's largest attainable utility, must be finite")
    if s.seed is not None and s.seed < 0:
        # restart streams are seeded with it, and numpy takes no negative seed
        problems.append(f"seed must be >= 0 or null, got {s.seed}")
    return problems


# ---------------------------------------------------------------------------
# coalitions


@dataclass(frozen=True, order=True)
class Coalition:
    """Subset of players encoded as a bitmask (bit n == player n)."""

    mask: int

    def __post_init__(self):
        if not (0 <= self.mask < (1 << MAX_PLAYERS)):
            raise ValueError(f"mask {self.mask} out of range for {MAX_PLAYERS} players")

    @classmethod
    def from_members(cls, members) -> "Coalition":
        mask = 0
        for p in members:
            if not (0 <= int(p) < MAX_PLAYERS):
                raise ValueError(f"player index {p} out of range")
            mask |= 1 << int(p)
        return cls(mask)

    @classmethod
    def singleton(cls, player: int) -> "Coalition":
        return cls.from_members([player])

    @classmethod
    def grand(cls, n_players: int) -> "Coalition":
        if not (1 <= n_players <= MAX_PLAYERS):
            raise ValueError(f"n_players must be in [1, {MAX_PLAYERS}]")
        return cls((1 << n_players) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(p for p in range(MAX_PLAYERS) if self.mask >> p & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def contains(self, player: int) -> bool:
        return bool(self.mask >> player & 1)

    def label(self) -> str:
        return "{" + ",".join(str(p + 1) for p in self.members()) + "}"


def all_coalitions(n_players: int):
    """Every nonempty coalition of the first n_players, ascending mask."""
    for mask in range(1, 1 << n_players):
        yield Coalition(mask)


# ---------------------------------------------------------------------------
# allocations


@dataclass(frozen=True, eq=False)
class Allocation:
    """x[n, i, k] = amount of resource k provider n gives application i.
    == and hash are by identity; compare the arrays x themselves."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(self.x))
        if self.x.ndim != 3:
            raise ValueError("allocation must be (providers, apps, resources)")
        if np.any(self.x < 0):
            raise ValueError("allocation entries must be >= 0")


def audit_allocation(
    s: Scenario,
    alloc: Allocation,
    coalition: Coalition | None = None,
    tol: float = 1e-9,
) -> list[str]:
    """Independent feasibility check by direct constraint arithmetic.

    The allocation is in the coalition's own coordinates
    (Scenario.local_axes), the grand coalition's, (N, M, K), by default:
    those hold nothing by or for a non-member.  Verifies shape,
    per-provider capacity and per-application request caps (Allocation
    refuses a negative entry).  Returns the violated constraints, empty
    when feasible within tol; providers, applications and resources are
    numbered globally from 1, as coalitions are.
    """
    x = alloc.x
    mask = (1 << s.n_players) - 1 if coalition is None else coalition.mask
    providers, apps = s.local_axes(mask)
    want = (len(providers), len(apps), s.n_resources)
    if x.shape != want:
        return [f"allocation shape {x.shape} is not {want}"]
    problems = []
    over_cap = x.sum(axis=1) - s.capacities[providers]
    if np.any(over_cap > tol):
        n, k = np.unravel_index(np.argmax(over_cap), over_cap.shape)
        problems.append(f"provider {providers[n] + 1} exceeds capacity of resource {k + 1} "
                        f"by {over_cap[n, k]:g}")
    over_req = x.sum(axis=0) - s.requests[apps]
    if np.any(over_req > tol):
        i, k = np.unravel_index(np.argmax(over_req), over_req.shape)
        problems.append(f"application {apps[i] + 1} oversupplied on resource {k + 1} "
                        f"by {over_req[i, k]:g}")
    return problems


# ---------------------------------------------------------------------------
# generation

def generate_scenario(
    n_players: int,
    n_resources: int,
    m_per_player: int,
    utility: str = "linear",
    mu: float | None = None,
    seed: int = 0,
    w: float = 1.0,
    zeta: float = 1.0,
) -> Scenario:
    """Draw a random scenario, deterministic in seed.

    Requests are uniform on [1, 10].  Each provider's capacity per resource
    is uniform on [0.5 D, 1.5 D] where D is its own applications' total
    request for that resource, so providers sit within 50% of self-
    sufficiency either way.  Draw order is fixed (per player: request
    matrix, then capacity vector) so identical seeds give identical
    scenarios byte for byte.
    """
    if n_players < 1 or n_resources < 1 or m_per_player < 1:
        raise ValueError("n_players, n_resources and m_per_player must all be >= 1")
    if n_players > MAX_PLAYERS:
        raise ValueError(f"at most {MAX_PLAYERS} players supported")
    if (entries := n_players * m_per_player * n_resources) > MAX_REQUEST_ENTRIES:
        raise ValueError(f"at most {MAX_REQUEST_ENTRIES} request entries (N * m * K) "
                         f"supported, got {n_players} * {m_per_player} * {n_resources} "
                         f"= {entries}")
    if utility == "sigmoid" and mu is None:
        raise ValueError("sigmoid generation needs mu")
    if utility == "linear" and mu is not None:
        raise ValueError("linear generation takes no mu")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    req_blocks, caps = [], []
    for _ in range(n_players):
        r = rng.uniform(REQUEST_LOW, REQUEST_HIGH, size=(m_per_player, n_resources))
        demand = r.sum(axis=0)
        c = rng.uniform((1 - CAPACITY_SPREAD) * demand, (1 + CAPACITY_SPREAD) * demand)
        req_blocks.append(r)
        caps.append(c)
    if utility == "linear":
        specs = tuple(UtilitySpec("linear") for _ in range(n_players))
    else:
        specs = tuple(UtilitySpec("sigmoid", mu=float(mu)) for _ in range(n_players))
    return Scenario(
        n_players=n_players,
        n_resources=n_resources,
        capacities=np.vstack(caps),
        requests=np.vstack(req_blocks),
        owner=np.repeat(np.arange(n_players), m_per_player),
        utilities=specs,
        w=np.full(n_players, float(w)),
        zeta=np.full(n_players, float(zeta)),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# serialization (lossless: floats survive the JSON round trip exactly)


def scenario_to_json(s: Scenario) -> str:
    players = []
    for n in range(s.n_players):
        spec = s.utilities[n]
        if spec.kind == "sigmoid":
            utility = {"kind": "sigmoid", "mu": spec.mu}
        else:
            utility = {"kind": "linear"}
            if spec.coeffs is not None:
                utility["coeffs"] = spec.coeffs.tolist()
        players.append(
            {
                "capacity": s.capacities[n].tolist(),
                "requests": s.requests[s.owner == n].tolist(),
                "utility": utility,
                "w": float(s.w[n]),
                "zeta": float(s.zeta[n]),
            }
        )
    doc = {
        "version": SCENARIO_FORMAT_VERSION,
        "n": s.n_players,
        "k": s.n_resources,
        "players": players,
        "seed": s.seed,
    }
    return json.dumps(doc, indent=2)


def text_digest(text: str) -> str:
    """Scenario digest of a serialized scenario: its sha256, 16 hex digits."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _field(obj: dict, key: str, kind, what: str, where: str):
    """obj[key] if it is of `kind` (a JSON true/false is no number), else
    a ValueError naming the field."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: {key!r} must be {what}, got {value!r}")
    return value


def _is_number(value) -> bool:
    """A JSON number within a float's range (true and false are none)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, float) or abs(value) <= sys.float_info.max))


def _number(obj: dict, key: str, where: str):
    """obj[key] if it is a number (_is_number), else a ValueError naming
    the field."""
    if not _is_number(value := obj.get(key)):
        raise ValueError(f"{where}: {key!r} must be a number, got {value!r}")
    return value


def _numbers(obj: dict, key: str, where: str) -> np.ndarray:
    """A field holding a (nested) list of numbers, as a float array; a
    leaf that is no number (_is_number) or a ragged list is a ValueError
    naming the field."""
    value = _field(obj, key, list, "a list of numbers", where)
    lists = [value]
    while lists:
        for leaf in lists.pop():
            if isinstance(leaf, list):
                lists.append(leaf)
            elif not _is_number(leaf):
                raise ValueError(f"{where}: {key!r} must hold numbers alone, got {leaf!r}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ValueError(f"{where}: {key!r} must be a list of numbers, got {value!r}") from None


def scenario_from_json(text: str) -> Scenario:
    """Parse a scenario document; a malformed one raises ValueError naming
    the offending field."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    if doc.get("version") != SCENARIO_FORMAT_VERSION:
        raise ValueError(f"unsupported scenario version {doc.get('version')!r}")
    n = _field(doc, "n", int, "an integer", "scenario")
    k = _field(doc, "k", int, "an integer", "scenario")
    seed = _field(doc, "seed", (int, type(None)), "an integer or null", "scenario")
    players = _field(doc, "players", list, "a list of player objects", "scenario")
    caps, reqs, owner, specs, ws, zs = [], [], [], [], [], []
    for idx, p in enumerate(players):
        where = f"players[{idx}]"
        if not isinstance(p, dict):
            raise ValueError(f"{where} must be an object, got {p!r}")
        caps.append(_numbers(p, "capacity", where))
        block = _numbers(p, "requests", where)
        if block.ndim != 2 or block.shape[1] != k:
            raise ValueError(f"{where}: 'requests' must be a list of rows of k={k} numbers")
        reqs.append(block)
        owner.extend([idx] * block.shape[0])
        u = _field(p, "utility", dict, "an object", where)
        kind = _field(u, "kind", str, "a string", f"{where}.utility")
        extra = {"sigmoid": "coeffs", "linear": "mu"}.get(kind)
        if extra in u:
            raise ValueError(f"{where}.utility: {kind} utility takes no {extra!r}")
        if kind == "sigmoid":
            specs.append(UtilitySpec("sigmoid", mu=_number(u, "mu", f"{where}.utility")))
        else:
            coeffs = _numbers(u, "coeffs", f"{where}.utility") if "coeffs" in u else None
            specs.append(UtilitySpec(kind, coeffs=coeffs))
        ws.append(_number(p, "w", where))
        zs.append(_number(p, "zeta", where))
    try:
        capacities = np.asarray(caps, dtype=float)
    except ValueError:
        raise ValueError("players: every 'capacity' must have the same length") from None
    return Scenario(
        n_players=n,
        n_resources=k,
        capacities=capacities,
        requests=np.vstack(reqs) if reqs else np.zeros((0, k)),
        owner=np.asarray(owner, dtype=int),
        utilities=tuple(specs),
        w=np.asarray(ws, dtype=float),
        zeta=np.asarray(zs, dtype=float),
        seed=seed,
    )


def save_scenario(s: Scenario, path: str | Path) -> str:
    """Write the scenario as JSON and return the text written."""
    text = scenario_to_json(s)
    Path(path).write_text(text, encoding="utf-8")
    return text


def load_scenario(path: str | Path) -> Scenario:
    """The scenario in the file, with the digest of the text read."""
    text = Path(path).read_text(encoding="utf-8")
    s = scenario_from_json(text)
    object.__setattr__(s, "_text_digest", text_digest(text))
    return s
