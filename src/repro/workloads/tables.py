"""Web-table generation across six domains.

Each domain mimics a family of tables common in web-table corpora
(TabFact / WikiTable-TURL): elections, film casts, sports seasons, music
discographies, geography, and olympic medal tables.  Tables within a
domain share schema and caption structure (differing by state/year/team
etc.), which is what makes retrieval non-trivial: BM25 must distinguish
"elections in ohio 1950" from "elections in ohio 1952".

Entity-valued cells register :class:`Entity` appearances; the text
generator turns those into wiki-style pages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.datalake.types import Source, Table
from repro.workloads.vocab import (
    CHARACTER_ROLES,
    COUNTRIES,
    ELECTION_RESULTS,
    FILM_GENRES,
    NATIONS,
    PARTIES,
    POSITIONS,
    RECORD_LABELS,
    REGIONS,
    US_STATES,
    EntityNamer,
    Vocabulary,
)

DOMAINS = ("elections", "films", "sports", "music", "geography", "olympics")

@dataclass
class Entity:
    """A real-world entity appearing in one or more table cells.

    ``kind`` drives page generation; ``appearances`` records the facts the
    entity participates in (one dict per table row that mentions it).
    ``distinctive`` marks entities whose names are globally unique —
    retrieval of their pages is easy; non-distinctive entities (districts,
    labels, regions, nations) share name tokens with many instances.
    """

    name: str
    kind: str
    distinctive: bool
    appearances: List[Dict[str, str]] = field(default_factory=list)
    peers: List[str] = field(default_factory=list)

    def add_appearance(self, **facts: str) -> None:
        self.appearances.append(dict(facts))

    def add_peers(self, names: List[str], limit: int = 3) -> None:
        """Record co-occurring entities (same table) for cross-mentions."""
        for name in names:
            if name.lower() == self.name.lower() or name in self.peers:
                continue
            if len(self.peers) >= limit:
                break
            self.peers.append(name)


class _EntityRegistry:
    """Collects entities across tables; shared entities accumulate facts."""

    def __init__(self) -> None:
        self.entities: Dict[str, Entity] = {}

    def record(self, name: str, kind: str, distinctive: bool, **facts: str) -> Entity:
        entity = self.entities.get(name.lower())
        if entity is None:
            entity = Entity(name=name, kind=kind, distinctive=distinctive)
            self.entities[name.lower()] = entity
        entity.add_appearance(**facts)
        return entity


class WebTableGenerator:
    """Seeded generator of domain-templated web tables."""

    def __init__(self, seed: int = 0, source_name: str = "webtables") -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._vocab = Vocabulary(seed + 1)
        self._namer = EntityNamer(seed + 2)
        self._registry = _EntityRegistry()
        self._counter = 0
        self._source = Source(source_name)
        self._used_scopes: Dict[str, set] = {}

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _next_id(self, domain: str) -> str:
        self._counter += 1
        return f"{domain}-{self._counter:05d}"


    def _link_peers(self, entities: List[Entity], limit: int = 3) -> None:
        """Cross-link entities that co-occur in one table (for page
        see-also mentions, which create hard retrieval distractors)."""
        names = [entity.name for entity in entities]
        for entity in entities:
            others = [n for n in names if n.lower() != entity.name.lower()]
            self._rng.shuffle(others)
            entity.add_peers(others, limit=limit)

    def _year(self) -> int:
        return self._rng.randrange(1948, 2023, 2)

    def _fresh_scope(self, kind: str, draw) -> tuple:
        """Draw a caption scope (e.g. (state, year)) not used before, so
        captions are unique lake-wide (as real table titles are).  After
        200 taken draws the next draw's name part is numbered, as a
        used-up :class:`Vocabulary` pool numbers its names
        (``("ohio 1907", 1950)``)."""
        used = self._used_scopes.setdefault(kind, set())
        for _ in range(200):
            scope = draw()
            if scope not in used:
                used.add(scope)
                return scope
        name, *rest = draw()
        scope = (f"{name} {len(used)}", *rest)
        used.add(scope)
        return scope

    @property
    def entities(self) -> Dict[str, Entity]:
        """All entities recorded so far (lowercased name -> Entity)."""
        return self._registry.entities

    # ------------------------------------------------------------------
    # domains
    # ------------------------------------------------------------------
    def elections_table(self) -> Table:
        """US-house-style election results for one state and year."""
        state, year = self._fresh_scope(
            "elections", lambda: (self._vocab.choice(US_STATES), self._year())
        )
        num_rows = self._rng.randint(4, 9)
        rows: List[Tuple[str, ...]] = []
        page_entities: List[Entity] = []
        for district_number in range(1, num_rows + 1):
            district = f"{state} {district_number}"
            incumbent = self._namer.next_name()
            party = self._vocab.choice(PARTIES)
            first_elected = year - self._rng.randint(2, 20)
            result = self._vocab.choice(ELECTION_RESULTS)
            votes = self._rng.randint(40, 290) * 1000 + self._rng.randint(0, 999)
            rows.append(
                (
                    district,
                    incumbent,
                    party,
                    str(first_elected),
                    result,
                    f"{votes:,}",
                )
            )
            page_entities.append(self._registry.record(
                incumbent,
                kind="politician",
                distinctive=True,
                district=district,
                party=party,
                first_elected=str(first_elected),
                result=result,
                votes=f"{votes:,}",
                year=str(year),
                state=state,
            ))
            self._registry.record(
                district,
                kind="district",
                distinctive=False,
                incumbent=incumbent,
                party=party,
                year=str(year),
                state=state,
            )
            self._registry.record(
                party,
                kind="party",
                distinctive=False,
                incumbent=incumbent,
                state=state,
                year=str(year),
            )
        self._link_peers(page_entities)
        table = Table(
            table_id=self._next_id("elections"),
            caption=(
                f"united states house of representatives elections in "
                f"{state} {year}"
            ),
            columns=("district", "incumbent", "party", "first elected",
                     "result", "votes"),
            rows=rows,
            source=self._source,
            entity_columns=("incumbent", "district", "party"),
            key_column="district",
            metadata={"domain": "elections", "state": state, "year": year},
        )
        return table

    def films_table(self) -> Table:
        """Main-cast table of one film."""
        film = self._vocab.film_title()
        year = self._year()
        genre = self._vocab.choice(FILM_GENRES)
        num_rows = self._rng.randint(4, 8)
        roles = self._vocab.sample(CHARACTER_ROLES, num_rows)
        rows: List[Tuple[str, ...]] = []
        page_entities: List[Entity] = []
        for billing, role in enumerate(roles, start=1):
            actor = self._namer.next_name()
            scenes = self._rng.randint(5, 60)
            rows.append((actor, role, str(billing), str(scenes)))
            page_entities.append(self._registry.record(
                actor,
                kind="actor",
                distinctive=True,
                film=film,
                role=role,
                year=str(year),
                genre=genre,
                billing=str(billing),
            ))
            self._registry.record(
                role,
                kind="role",
                distinctive=False,
                actor=actor,
                film=film,
                genre=genre,
            )
        self._link_peers(page_entities)
        self._registry.record(
            film,
            kind="film",
            distinctive=False,
            year=str(year),
            genre=genre,
            lead=rows[0][0],
        )
        table = Table(
            table_id=self._next_id("films"),
            caption=f"main cast of {film} ({year} {genre} film)",
            columns=("actor", "role", "billing", "scenes"),
            rows=rows,
            source=self._source,
            entity_columns=("actor", "role"),
            key_column="actor",
            metadata={"domain": "films", "film": film, "year": year},
        )
        return table

    def sports_table(self) -> Table:
        """Season player statistics of one team."""
        team = self._vocab.team_name()
        year = self._year()
        num_rows = self._rng.randint(5, 10)
        rows: List[Tuple[str, ...]] = []
        page_entities: List[Entity] = []
        for _ in range(num_rows):
            player = self._namer.next_name()
            position = self._vocab.choice(POSITIONS)
            games = self._rng.randint(35, 82)
            points = round(self._rng.uniform(2.0, 31.0), 1)
            rebounds = round(self._rng.uniform(1.0, 13.0), 1)
            rows.append((player, position, str(games), str(points), str(rebounds)))
            page_entities.append(self._registry.record(
                player,
                kind="player",
                distinctive=True,
                team=team,
                position=position,
                games=str(games),
                points=str(points),
                rebounds=str(rebounds),
                year=str(year),
            ))
            self._registry.record(
                position,
                kind="position",
                distinctive=False,
                player=player,
                team=team,
            )
        self._link_peers(page_entities)
        table = Table(
            table_id=self._next_id("sports"),
            caption=f"{team} {year} season player statistics",
            columns=("player", "position", "games", "points per game",
                     "rebounds per game"),
            rows=rows,
            source=self._source,
            entity_columns=("player", "position"),
            key_column="player",
            metadata={"domain": "sports", "team": team, "year": year},
        )
        return table

    def music_table(self) -> Table:
        """Studio-album discography of one artist."""
        artist = self._namer.next_name()
        start_year = self._year()
        num_rows = self._rng.randint(4, 8)
        rows: List[Tuple[str, ...]] = []
        page_entities: List[Entity] = []
        year = start_year
        for _ in range(num_rows):
            album = self._vocab.album_title()
            label = self._vocab.choice(RECORD_LABELS)
            weeks = self._rng.randint(1, 52)
            peak = self._rng.randint(1, 100)
            rows.append((album, str(year), label, str(weeks), str(peak)))
            page_entities.append(self._registry.record(
                album,
                kind="album",
                distinctive=False,
                artist=artist,
                year=str(year),
                label=label,
                weeks=str(weeks),
                peak=str(peak),
            ))
            self._registry.record(
                label,
                kind="label",
                distinctive=False,
                album=album,
                artist=artist,
                year=str(year),
            )
            year += self._rng.randint(1, 3)
        self._link_peers(page_entities)
        table = Table(
            table_id=self._next_id("music"),
            caption=f"{artist} studio album discography",
            columns=("album", "year", "label", "weeks on chart",
                     "peak position"),
            rows=rows,
            source=self._source,
            entity_columns=("album", "label"),
            key_column="album",
            metadata={"domain": "music", "artist": artist},
        )
        return table

    def geography_table(self) -> Table:
        """Largest-cities table of one country and census year."""
        country, year = self._fresh_scope(
            "geography", lambda: (self._vocab.choice(COUNTRIES), self._year())
        )
        num_rows = self._rng.randint(5, 10)
        rows: List[Tuple[str, ...]] = []
        page_entities: List[Entity] = []
        for _ in range(num_rows):
            city = self._vocab.city_name()
            region = self._vocab.choice(REGIONS)
            population = self._rng.randint(50, 900) * 1000 + self._rng.randint(0, 999)
            area = self._rng.randint(40, 800)
            rows.append((city, region, f"{population:,}", str(area)))
            page_entities.append(self._registry.record(
                city,
                kind="city",
                distinctive=True,
                country=country,
                region=region,
                population=f"{population:,}",
                area=str(area),
                year=str(year),
            ))
            self._registry.record(
                region,
                kind="region",
                distinctive=False,
                city=city,
                country=country,
                year=str(year),
            )
        self._link_peers(page_entities)
        table = Table(
            table_id=self._next_id("geography"),
            caption=f"largest cities of {country} by population ({year} census)",
            columns=("city", "region", "population", "area km2"),
            rows=rows,
            source=self._source,
            entity_columns=("city", "region"),
            key_column="city",
            metadata={"domain": "geography", "country": country, "year": year},
        )
        return table

    def olympics_table(self) -> Table:
        """Medal table of one games edition (host city disambiguates)."""
        year = self._year()
        host = self._vocab.city_name()
        num_rows = self._rng.randint(6, 12)
        nations = self._vocab.sample(NATIONS, min(num_rows, len(NATIONS)))
        rows: List[Tuple[str, ...]] = []
        for nation in nations:
            gold = self._rng.randint(0, 30)
            silver = self._rng.randint(0, 30)
            bronze = self._rng.randint(0, 30)
            total = gold + silver + bronze
            rows.append((nation, str(gold), str(silver), str(bronze), str(total)))
            self._registry.record(
                nation,
                kind="nation",
                distinctive=False,
                year=str(year),
                gold=str(gold),
                silver=str(silver),
                bronze=str(bronze),
                total=str(total),
            )
        table = Table(
            table_id=self._next_id("olympics"),
            caption=f"{year} summer games in {host} medal table",
            columns=("nation", "gold", "silver", "bronze", "total"),
            rows=rows,
            source=self._source,
            entity_columns=("nation",),
            key_column="nation",
            metadata={"domain": "olympics", "year": year, "host": host},
        )
        return table

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def generate(self, num_tables: int) -> List[Table]:
        """Generate ``num_tables`` tables, each domain equally likely."""
        if num_tables < 0:
            raise ValueError(f"num_tables must be >= 0, got {num_tables}")
        builders: Dict[str, Callable[[], Table]] = {
            "elections": self.elections_table,
            "films": self.films_table,
            "sports": self.sports_table,
            "music": self.music_table,
            "geography": self.geography_table,
            "olympics": self.olympics_table,
        }
        domains = sorted(DOMAINS)
        return [
            builders[self._rng.choices(domains)[0]]()
            for _ in range(num_tables)
        ]
