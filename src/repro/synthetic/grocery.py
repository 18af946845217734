"""A curated grocery world: named taxonomy + persona-driven demand.

The Section 3.1 generator produces statistically controlled but anonymous
data. For documentation, demos and interpretable tests this module
provides the opposite: a small hand-curated supermarket taxonomy with
readable names, and a *persona* demand model that plants realistic
positive and negative associations:

* every persona shops a few categories regularly (positive associations
  across categories, as in the paper's cluster model);
* within a category each persona is **brand loyal** with some
  probability — the mechanism behind the paper's motivating examples
  (Ruffles buyers drink Coke, so Ruffles is negatively associated with
  Pepsi).

Because the loyalties are declared explicitly, tests can assert that the
miner recovers exactly the planted negative associations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.database import TransactionDatabase
from ..errors import GenerationError
from ..taxonomy.builders import taxonomy_from_nested
from ..taxonomy.tree import Taxonomy
from .sampling import pick, weighted_cdf

#: The store layout: department -> category -> brands.
GROCERY_TREE = {
    "beverages": {
        "cola": ["KolaRed", "KolaBlue"],
        "bottled water": ["ClearSpring", "AlpinePeak"],
        "coffee": ["MorningRoast", "DarkBean"],
    },
    "snacks": {
        "chips": ["CrispWave", "SaltRidge"],
        "cookies": ["ChocoBite", "OatRound"],
    },
    "breakfast": {
        "cereal": ["CornFlakelets", "BranBits"],
        "yogurt": ["CreamTop", "LightCup"],
    },
    "household": {
        "detergent": ["SudsMax", "EcoWash"],
        "paper goods": ["SoftRoll", "ValueRoll"],
    },
}


@dataclass(frozen=True, slots=True)
class Persona:
    """One household type in the demand model.

    Attributes
    ----------
    name:
        Label for reports.
    weight:
        Relative share of shoppers of this persona.
    categories:
        Category name -> purchase probability per trip.
    loyalties:
        Category name -> brand name the persona (almost) always picks
        there. Categories without an entry get a uniform brand choice.
    """

    name: str
    weight: float
    categories: dict[str, float] = field(hash=False)
    loyalties: dict[str, str] = field(hash=False)


#: Default persona mix. The planted signal: gamers are loyal to KolaRed
#: and CrispWave, households to EcoWash/ClearSpring, breakfast lovers to
#: BranBits/CreamTop. KolaRed shoppers therefore (almost) never buy
#: KolaBlue, etc.
DEFAULT_PERSONAS = (
    Persona(
        name="gamer",
        weight=0.35,
        categories={"cola": 0.9, "chips": 0.8, "cookies": 0.3},
        loyalties={"cola": "KolaRed", "chips": "CrispWave"},
    ),
    Persona(
        name="household",
        weight=0.35,
        categories={
            "detergent": 0.6,
            "paper goods": 0.7,
            "bottled water": 0.5,
            "cola": 0.2,
        },
        loyalties={"detergent": "EcoWash", "bottled water": "ClearSpring",
                   "cola": "KolaBlue"},
    ),
    Persona(
        name="breakfast",
        weight=0.30,
        categories={"cereal": 0.8, "yogurt": 0.7, "coffee": 0.6},
        loyalties={"cereal": "BranBits", "yogurt": "CreamTop"},
    ),
)


@dataclass(frozen=True, slots=True)
class GroceryDataset:
    """Taxonomy, transactions and the personas that generated them."""

    taxonomy: Taxonomy
    database: TransactionDatabase
    personas: tuple[Persona, ...]
    seed: int


def grocery_taxonomy() -> Taxonomy:
    """The curated supermarket taxonomy with readable names."""
    return taxonomy_from_nested(GROCERY_TREE)


def generate_grocery_dataset(
    num_transactions: int = 5000,
    personas: tuple[Persona, ...] = DEFAULT_PERSONAS,
    loyalty_strength: float = 0.95,
    seed: int = 0,
) -> GroceryDataset:
    """Generate persona-driven grocery transactions.

    Parameters
    ----------
    num_transactions:
        Number of shopping trips.
    personas:
        The household mix; weights are normalized internally.
    loyalty_strength:
        Probability that a loyal persona picks its declared brand
        (the remainder is spread over the category's other brands).
    seed:
        Reproducibility seed.
    """
    if num_transactions < 1:
        raise GenerationError("num_transactions must be >= 1")
    if not personas:
        raise GenerationError("at least one persona is required")
    if not 0.5 <= loyalty_strength <= 1.0:
        raise GenerationError(
            f"loyalty_strength must be in [0.5, 1], got {loyalty_strength}"
        )
    taxonomy = grocery_taxonomy()
    rng = np.random.default_rng(seed)
    weights = np.array([persona.weight for persona in personas], float)
    if (weights <= 0).any():
        raise GenerationError("persona weights must be positive")
    persona_cdf = weighted_cdf(
        weights / weights.sum(), len(personas), "persona weights"
    )
    plans = [_shopping_plan(persona, taxonomy) for persona in personas]

    rows: list[list[int]] = []
    for _ in range(num_transactions):
        basket: set[int] = set()
        for probability, loyal, others in plans[pick(persona_cdf, rng)]:
            if rng.random() >= probability:
                continue
            if loyal is not None and rng.random() < loyalty_strength:
                basket.add(loyal)
            else:
                # The uniform draw ``rng.choice(others)`` would make.
                basket.add(others[int(rng.integers(0, len(others)))])
        if not basket:
            # Window shopper: buys one random staple so the basket is
            # a valid transaction.
            basket.add(taxonomy.id_of("ClearSpring"))
        rows.append(sorted(basket))
    return GroceryDataset(
        taxonomy=taxonomy,
        database=TransactionDatabase(rows),
        personas=tuple(personas),
        seed=seed,
    )


def _shopping_plan(
    persona: Persona, taxonomy: Taxonomy
) -> list[tuple[float, int | None, list[int]]]:
    """Per shopped category: its probability, the loyal brand's id (or
    ``None``) and the brands a non-loyal pick is uniform over."""
    plan = []
    for category, probability in persona.categories.items():
        brands = [
            taxonomy.id_of(brand)
            for brand in taxonomy_children_names(category)
        ]
        loyal_brand = persona.loyalties.get(category)
        loyal = None if loyal_brand is None else taxonomy.id_of(loyal_brand)
        others = [brand for brand in brands if brand != loyal] or brands
        plan.append((probability, loyal, others))
    return plan


def taxonomy_children_names(category: str) -> list[str]:
    """Brand names under a named category of the grocery tree."""
    for department in GROCERY_TREE.values():
        if category in department:
            return list(department[category])
    raise GenerationError(f"unknown grocery category {category!r}")
