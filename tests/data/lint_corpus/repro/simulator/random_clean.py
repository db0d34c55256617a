"""REP002: seeded instances, constructors, and look-alike names."""
import random
import random as rnd
from random import Random
from random import Random as Rng, SystemRandom, seed
import randomness
from randomly import shuffle

ENTROPY = rnd.SystemRandom
random.seed(7)
rng = Rng(3)
PICK = rng.choice([1, 2])
self_random = randomness.random.randint
shuffle([])


def draw(self, random_source):
    import random as local

    rng = random.Random(42)
    rng.random()
    return local.Random(1).random(), self.random.randint(0, 3), random_source.random()
