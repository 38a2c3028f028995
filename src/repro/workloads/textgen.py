"""Wiki-style entity page generation.

The paper harvests Wikipedia text for entities linked from table cells;
this generator renders an equivalent page per entity from its recorded
table appearances.  Two knobs shape retrieval difficulty the way real
wiki text does:

* ``boilerplate_level`` — generic sentences shared by every page of a
  kind (real pages share large amounts of template prose), which dilutes
  BM25 scores;
* ``cross_mention_rate`` — "see also" mentions of other entities, which
  put a given entity's name on pages that are *not* its own.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.datalake.types import Source, TextDocument
from repro.workloads.tables import Entity

_BOILERPLATE = {
    "politician": [
        "The united states house of representatives is the lower chamber of "
        "the united states congress.",
        "Election results list the incumbent, party, first elected year, "
        "result, and votes for each district.",
        "Members of the house are elected to two year terms from "
        "congressional districts.",
        "An incumbent seeking another term may keep or lose the seat.",
    ],
    "district": [
        "A congressional district elects a single member to the house of "
        "representatives.",
        "District boundaries are redrawn after each decennial census.",
        "Each district is identified by its state and a district number.",
    ],
    "actor": [
        "Billing order in a film's credits reflects the prominence of a role.",
        "Casting for studio films is announced in the trade press before "
        "principal photography.",
        "A main cast table lists each actor, their role, billing, and scenes.",
    ],
    "film": [
        "A feature film is produced in a genre such as drama, comedy, or "
        "thriller.",
        "The main cast of a film is listed in billing order.",
    ],
    "player": [
        "Season statistics are recorded per player and include games played, "
        "points per game, and rebounds per game.",
        "A roster lists each player with their position and averages.",
    ],
    "album": [
        "A studio album is released under a record label and may chart for "
        "several weeks.",
        "Peak position is the best weekly chart rank an album attains.",
    ],
    "label": [
        "A record label signs artists and releases their studio albums.",
        "Discography tables list each album with its year, label, weeks on "
        "chart, and peak position.",
    ],
    "city": [
        "Census population figures are published for cities and "
        "administrative regions.",
        "City area is measured in square kilometres.",
    ],
    "region": [
        "An administrative region groups several cities of a country.",
        "Regional statistics are collected at each census.",
    ],
    "nation": [
        "The medal table ranks delegations by gold medals won.",
        "The total column counts gold, silver, and bronze medals together.",
    ],
    "party": [
        "A political party nominates candidates for elected office.",
        "The two major parties contest most congressional districts.",
    ],
    "role": [
        "A stock character is a recognizable archetype that recurs across "
        "films and genres.",
        "Casting announcements name the actor chosen for each role.",
    ],
    "position": [
        "Basketball positions describe a player's usual duties on the "
        "court.",
        "A team's roster lists each player with their position.",
    ],
    "airport": [
        "Airport traffic is measured in annual passengers.",
        "An international airport serves its city and surrounding region.",
    ],
    "book": [
        "A bibliography lists an author's books with year, publisher, and "
        "copies sold.",
        "Page counts and sales figures are reported by the publisher.",
    ],
    "publisher": [
        "A publishing house releases books by many authors.",
        "Catalogue entries record each title with its publication year.",
    ],
}


def _fact_sentences(entity: Entity, facts: Dict[str, str]) -> List[str]:
    """Kind-specific sentences rendering one appearance of an entity."""
    name = entity.name.title()
    kind = entity.kind
    if kind == "politician":
        return [
            f"{name} is an american politician of the {facts['party']} party.",
            f"{name} represented the {facts['district']} district and was "
            f"first elected in {facts['first_elected']}.",
            f"In the {facts['year']} election in {facts['state']}, {name} "
            f"was {facts['result']} with {facts['votes']} votes.",
        ]
    if kind == "district":
        return [
            f"The {entity.name} district of {facts['state']} was represented "
            f"by {facts['incumbent'].title()} of the {facts['party']} party "
            f"in {facts['year']}.",
        ]
    if kind == "actor":
        return [
            f"{name} is an actor known for playing {facts['role']} in "
            f"{facts['film']} ({facts['year']}).",
            f"{name} received billing position {facts['billing']} in the "
            f"{facts['genre']} film {facts['film']}.",
        ]
    if kind == "film":
        return [
            f"{name} is a {facts['year']} {facts['genre']} film.",
            f"The lead role in {entity.name} was played by "
            f"{facts['lead'].title()}.",
        ]
    if kind == "player":
        return [
            f"{name} is a basketball {facts['position']} who played for the "
            f"{facts['team']} in {facts['year']}.",
            f"{name} appeared in {facts['games']} games averaging "
            f"{facts['points']} points per game and {facts['rebounds']} "
            f"rebounds per game.",
        ]
    if kind == "album":
        return [
            f"{name} is a studio album by {facts['artist'].title()} released "
            f"in {facts['year']} on {facts['label']}.",
            f"It spent {facts['weeks']} weeks on the chart peaking at "
            f"position {facts['peak']}.",
        ]
    if kind == "label":
        return [
            f"{name} is a record label whose releases include "
            f"{facts['album']} by {facts['artist'].title()} ({facts['year']}).",
        ]
    if kind == "city":
        return [
            f"{name} is a city in the {facts['region']} of "
            f"{facts['country']}.",
            f"At the {facts['year']} census it had a population of "
            f"{facts['population']} and an area of {facts['area']} square "
            f"kilometres.",
        ]
    if kind == "region":
        return [
            f"The {entity.name} includes the city of {facts['city'].title()}.",
        ]
    if kind == "nation":
        return [
            f"At the {facts['year']} summer games, {name} won "
            f"{facts['gold']} gold, {facts['silver']} silver, and "
            f"{facts['bronze']} bronze medals for a total of "
            f"{facts['total']}.",
        ]
    if kind == "party":
        return [
            f"The {entity.name} party fields candidates nationwide; "
            f"{facts['incumbent'].title()} stood for it in {facts['state']} "
            f"in {facts['year']}.",
        ]
    if kind == "role":
        return [
            f"{name} is a stock character; {facts['actor'].title()} played "
            f"it in {facts['film']}.",
        ]
    if kind == "position":
        return [
            f"The {entity.name} position was held by "
            f"{facts['player'].title()} of the {facts['team']}.",
        ]
    if kind == "airport":
        return [
            f"{name} serves {facts['city'].title()} in {facts['country']}.",
            f"In {facts['year']} it handled {facts['passengers']} passengers "
            f"across {facts['runways']} runways.",
        ]
    if kind == "book":
        return [
            f"{name} is a book by {facts['author'].title()} published in "
            f"{facts['year']} by {facts['publisher']}.",
            f"It runs {facts['pages']} pages and sold {facts['copies']} "
            f"copies.",
        ]
    if kind == "publisher":
        return [
            f"{name} published {facts['title']} by "
            f"{facts['author'].title()} in {facts['year']}.",
        ]
    raise ValueError(f"unknown entity kind: {kind}")


class EntityPageGenerator:
    """Seeded generator of entity pages from recorded appearances."""

    def __init__(
        self,
        seed: int = 0,
        boilerplate_level: int = 3,
        cross_mention_rate: float = 0.3,
        max_appearances: int = 4,
        source_name: str = "wikipages",
    ) -> None:
        if boilerplate_level < 0:
            raise ValueError("boilerplate_level must be >= 0")
        if not 0.0 <= cross_mention_rate <= 1.0:
            raise ValueError("cross_mention_rate must be in [0, 1]")
        self._rng = random.Random(seed)
        self.boilerplate_level = boilerplate_level
        self.cross_mention_rate = cross_mention_rate
        self.max_appearances = max_appearances
        self._source = Source(source_name)

    def page_for(
        self,
        entity: Entity,
        doc_id: str,
        mention_pool: Optional[Sequence[str]] = None,
    ) -> TextDocument:
        """Render one entity's page."""
        pool = mention_pool or []
        return self._page(entity, doc_id, pool, _positions(pool))

    def _page(
        self,
        entity: Entity,
        doc_id: str,
        mention_pool: Sequence[str],
        positions: Dict[str, List[int]],
    ) -> TextDocument:
        """One page; ``positions`` maps each lowered pool name to where
        it stands in ``mention_pool``."""
        sentences: List[str] = []
        for facts in entity.appearances[: self.max_appearances]:
            sentences.extend(_fact_sentences(entity, facts))
        boiler = _BOILERPLATE.get(entity.kind, [])
        sentences.extend(boiler[: self.boilerplate_level])
        # cross-mentions: peers from the same table are the hardest
        # distractors (their pages share context *and* gain this name)
        for peer in entity.peers:
            if self._rng.random() < self.cross_mention_rate:
                sentences.append(f"See also {peer.title()}.")
        if (
            not entity.peers
            and mention_pool
            and self._rng.random() < self.cross_mention_rate
        ):
            # choice() over the pool less the entity's own name, drawn by
            # position without building that list: the same random stream
            own = positions.get(entity.name.lower(), [])
            if len(mention_pool) > len(own):
                pick = self._rng.choice(range(len(mention_pool) - len(own)))
                for position in own:
                    if position <= pick:
                        pick += 1
                mention = mention_pool[pick]
                sentences.append(f"See also {mention.title()}.")
        return TextDocument(
            doc_id=doc_id,
            title=entity.name.title(),
            text=" ".join(sentences),
            source=self._source,
            entity=entity.name,
            metadata={"kind": entity.kind},
        )

    def generate(self, entities: Dict[str, Entity]) -> List[TextDocument]:
        """Pages for every entity, ids assigned in deterministic order."""
        names = [entity.name for entity in entities.values()]
        positions = _positions(names)
        docs: List[TextDocument] = []
        for index, key in enumerate(sorted(entities)):
            docs.append(
                self._page(entities[key], f"page-{index:05d}", names, positions)
            )
        return docs


def _positions(pool: Sequence[str]) -> Dict[str, List[int]]:
    """Lowered name -> its ascending positions in ``pool``."""
    positions: Dict[str, List[int]] = {}
    for position, name in enumerate(pool):
        positions.setdefault(name.lower(), []).append(position)
    return positions
