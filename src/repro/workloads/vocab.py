"""Vocabulary pools for the synthetic corpus.

All pools are static lists; randomness enters only through the seeded
generators that draw from them.  Names are synthesized combinatorially,
so each kind holds a fixed number of distinct names: 6,400 persons
(first x last; past that :class:`EntityNamer` adds a middle initial)
and, through :class:`Vocabulary`, 900 film titles, 900 album titles,
400 teams and 1,280 cities.  Past its pool a :class:`Vocabulary` kind's
names are numbered (``"velvet echo 907"``).  A name gets 1,000 draws
before it is numbered; once its pool is used up every one of them would
be rejected, so a numbered name is one draw: a few microseconds, as a
fresh name is.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Sequence


FIRST_NAMES = [
    "james", "mary", "robert", "patricia", "john", "jennifer", "michael",
    "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "christopher",
    "lisa", "daniel", "nancy", "matthew", "betty", "anthony", "margaret",
    "mark", "sandra", "donald", "ashley", "steven", "kimberly", "paul",
    "emily", "andrew", "donna", "joshua", "michelle", "kenneth", "carol",
    "kevin", "amanda", "brian", "dorothy", "george", "melissa", "timothy",
    "deborah", "ronald", "stephanie", "edward", "rebecca", "jason", "sharon",
    "jeffrey", "laura", "ryan", "cynthia", "jacob", "kathleen", "gary",
    "amy", "nicholas", "angela", "eric", "shirley", "jonathan", "anna",
    "stephen", "brenda", "larry", "pamela", "justin", "emma", "scott",
    "nicole", "brandon", "helen",
]

LAST_NAMES = [
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
    "lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
    "ramirez", "lewis", "robinson", "walker", "young", "allen", "king",
    "wright", "scott", "torres", "nguyen", "hill", "flores", "green",
    "adams", "nelson", "baker", "hall", "rivera", "campbell", "mitchell",
    "carter", "roberts", "gomez", "phillips", "evans", "turner", "diaz",
    "parker", "cruz", "edwards", "collins", "reyes", "stewart", "morris",
    "morales", "murphy", "cook", "rogers", "gutierrez", "ortiz", "morgan",
    "cooper", "peterson", "bailey", "reed", "kelly", "howard", "ramos",
    "kim", "cox", "ward", "richardson",
]

US_STATES = [
    "alabama", "alaska", "arizona", "arkansas", "california", "colorado",
    "connecticut", "delaware", "florida", "georgia", "hawaii", "idaho",
    "illinois", "indiana", "iowa", "kansas", "kentucky", "louisiana",
    "maine", "maryland", "massachusetts", "michigan", "minnesota",
    "mississippi", "missouri", "montana", "nebraska", "nevada",
    "new hampshire", "new jersey", "new mexico", "new york",
    "north carolina", "north dakota", "ohio", "oklahoma", "oregon",
    "pennsylvania", "rhode island", "south carolina", "south dakota",
    "tennessee", "texas", "utah", "vermont", "virginia", "washington",
    "west virginia", "wisconsin", "wyoming",
]

PARTIES = ["democratic", "republican"]

ELECTION_RESULTS = [
    "re-elected", "retired", "lost re-election", "defeated challenger",
]

POSITIONS = ["guard", "forward", "center", "point guard", "shooting guard"]

TEAM_CITIES = [
    "springfield", "riverton", "lakewood", "fairview", "georgetown",
    "salem", "madison", "clinton", "ashland", "burlington", "dover",
    "hudson", "kingston", "newport", "oxford", "bristol", "camden",
    "dayton", "franklin", "greenville",
]

TEAM_MASCOTS = [
    "hawks", "wolves", "tigers", "bears", "eagles", "lions", "panthers",
    "falcons", "bulls", "rams", "comets", "rockets", "pioneers",
    "mariners", "raiders", "chargers", "knights", "titans", "storm",
    "thunder",
]

ADJECTIVES = [
    "silent", "golden", "broken", "crimson", "hidden", "electric",
    "midnight", "burning", "frozen", "savage", "gentle", "restless",
    "hollow", "distant", "velvet", "shattered", "wandering", "eternal",
    "fading", "rising", "lonely", "brave", "bitter", "radiant", "stolen",
    "forgotten", "wild", "quiet", "scarlet", "endless",
]

NOUNS = [
    "river", "empire", "horizon", "shadow", "garden", "anthem", "mirror",
    "harbor", "voyage", "summer", "winter", "kingdom", "lantern", "echo",
    "canyon", "meadow", "signal", "compass", "ember", "avalanche",
    "monsoon", "orchard", "satellite", "labyrinth", "cascade", "prairie",
    "beacon", "tempest", "mosaic", "aurora",
]

FILM_GENRES = ["drama", "comedy", "thriller", "romance", "action", "mystery"]

CHARACTER_ROLES = [
    "the detective", "the mayor", "the journalist", "the stranger",
    "the teacher", "the pilot", "the doctor", "the musician",
    "the gambler", "the captain", "the artist", "the lawyer",
    "the rival", "the mentor", "the neighbor", "the scientist",
]

RECORD_LABELS = [
    "northside records", "bluebird music", "harbor lane records",
    "monument sound", "red brick records", "silver arch music",
    "old mill records", "paper crane records",
]

COUNTRIES = [
    "atlantia", "borania", "cordovia", "drevland", "estaria", "fenwick",
    "galdora", "hestia", "ivoria", "jorvland", "kestania", "lumeria",
]

REGIONS = [
    "northern province", "southern province", "eastern province",
    "western province", "central district", "coastal region",
    "highland region", "lake district",
]

NATIONS = [
    "valoria", "crestfall", "norwind", "suthmark", "eastmere", "westhold",
    "ironvale", "stormcrest", "brightland", "ashenford", "goldport",
    "silverpine", "redmoor", "greenhollow", "bluewater", "highcliff",
    "lowfield", "oakenshire", "pinemere", "willowbrook", "frosthaven",
    "sunmere", "rainholm", "windermoor",
]

_CITY_PREFIXES = ["north", "south", "east", "west", "new", "old", "upper", "lower"]

_CITY_SUFFIXES = [
    "heights", "falls", "grove", "junction", "park", "valley", "ridge",
    "springs",
]


def _bijective_base26(number: int) -> str:
    """``number`` (>= 1) in bijective base 26 over ``a``-``z``: 1 is
    ``a``, 26 is ``z``, 27 is ``aa``."""
    letters = []
    while number:
        number, digit = divmod(number - 1, 26)
        letters.append(chr(ord("a") + digit))
    return "".join(reversed(letters))


class EntityNamer:
    """Yields globally unique person-like names, deterministically.

    Base pool is first x last; once exhausted, a middle initial is added:
    ``a.`` to ``z.``, then ``aa.``, ``ab.``, ... (bijective base 26), so
    no name repeats however many are drawn.
    """

    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        base = [
            f"{first} {last}"
            for first in FIRST_NAMES
            for last in LAST_NAMES
        ]
        rng.shuffle(base)
        self._base = base
        self._cursor = 0

    def next_name(self) -> str:
        """The next unique name."""
        if self._cursor < len(self._base):
            name = self._base[self._cursor]
            self._cursor += 1
            return name
        # exhausted: recycle with middle initials a., b., ..., z., aa., ...
        index = self._cursor - len(self._base)
        cycle, at = divmod(index, len(self._base))
        initial = _bijective_base26(cycle + 1)
        name = self._base[at]
        first, _, last = name.partition(" ")
        self._cursor += 1
        return f"{first} {initial}. {last}"

    def take(self, count: int) -> List[str]:
        """The next ``count`` unique names."""
        return [self.next_name() for _ in range(count)]


#: the draws a name gets before it is numbered
_TRIES = 1000


class Vocabulary:
    """Seeded access to compound name pools (titles, teams, cities...)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._used: Dict[str, set] = {}
        #: kind -> how many of its names are plain (not numbered); at
        #: the product of its pool sizes every plain name is used
        self._plain: Counter = Counter()

    def _unique(self, kind: str, prefix: str, pools: Sequence[List[str]]) -> str:
        """An unused ``prefix`` + one word from each pool, space-joined.

        Each word is drawn as ``random.choice`` draws it, so the stream
        matches: ``getrandbits(n.bit_length())`` until below ``n``.  A
        name gets ``_TRIES`` draws and is numbered after them; once every
        plain name is used it is numbered after one draw.
        """
        used = self._used.setdefault(kind, set())
        getrandbits = self._rng.getrandbits
        sized = [(pool, len(pool), len(pool).bit_length()) for pool in pools]

        def draw() -> str:
            words = []
            for pool, n, bits in sized:
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                words.append(pool[r])
            return prefix + " ".join(words)

        if self._plain[kind] < math.prod(n for _, n, _ in sized):
            for _ in range(_TRIES):
                candidate = draw()
                if candidate not in used:
                    used.add(candidate)
                    self._plain[kind] += 1
                    return candidate
        # fall back to a numbered variant (pool exhausted)
        candidate = f"{draw()} {len(used)}"
        used.add(candidate)
        return candidate

    def film_title(self) -> str:
        """A unique film title like 'the crimson harbor'."""
        return self._unique("film", "the ", (ADJECTIVES, NOUNS))

    def album_title(self) -> str:
        """A unique album title like 'velvet echo'."""
        return self._unique("album", "", (ADJECTIVES, NOUNS))

    def team_name(self) -> str:
        """A unique team name like 'springfield hawks'."""
        return self._unique("team", "", (TEAM_CITIES, TEAM_MASCOTS))

    def city_name(self) -> str:
        """A unique synthetic city name like 'east dover heights'."""
        return self._unique("city", "", (_CITY_PREFIXES, TEAM_CITIES, _CITY_SUFFIXES))

    def choice(self, pool: List[str]) -> str:
        """Seeded draw from a static pool (with replacement)."""
        return self._rng.choice(pool)

    def randint(self, lo: int, hi: int) -> int:
        """Seeded integer in [lo, hi]."""
        return self._rng.randint(lo, hi)

    def sample(self, pool: List[str], count: int) -> List[str]:
        """Seeded sample without replacement."""
        return self._rng.sample(pool, count)
