"""Suppression fixture: each violation carries its own noqa."""

import random
import time


def jitter() -> float:
    return random.random()  # repro: noqa[DET001]


def stamp() -> float:
    return time.time()  # repro: noqa
