"""Certificates: finite, independently re-checkable witnesses.

Every boolean verdict in the engine ships one; `kernel.verify_certificate`
re-derives the attested fact from scratch without trusting the producer.
"""

from .rationals import Value


class Certificate(Value):
    """A kind and its payload dict; mutable, so unhashable."""

    __slots__ = _fields = ("kind", "payload")
    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, kind, payload=None):
        self.kind = kind
        self.payload = {} if payload is None else payload


def separated_by(p, q, b1, b2) -> Certificate:
    return Certificate("separated-by", {"p": p, "q": q, "b1": b1, "b2": b2})


def twin_pair(p, q) -> Certificate:
    return Certificate("twin-pair", {"p": p, "q": q})


def uncovered(point, chosen) -> Certificate:
    return Certificate("uncovered", {"point": point, "chosen": tuple(chosen)})


def covered(probes, chosen) -> Certificate:
    return Certificate("covered", {"probes": tuple(probes), "chosen": tuple(chosen)})


def excluded_by(family, candidates) -> Certificate:
    """candidates: mapping candidate point -> index of the family member
    excluding it."""
    return Certificate("excluded-by", {"family": family, "candidates": dict(candidates)})


def chain(links, src, dst, removed) -> Certificate:
    return Certificate("chain", {"links": tuple(links), "src": src, "dst": dst,
                                 "removed": frozenset(removed)})


def homeo_word(word, src, dst, involutive=False) -> Certificate:
    return Certificate("homeo-word", {"word": tuple(word), "src": src, "dst": dst,
                                      "involutive": involutive})


def compact_cert(center, radius, closed_interval, enclosing) -> Certificate:
    return Certificate("compact", {"center": center, "radius": radius,
                                   "closed_interval": list(closed_interval),
                                   "enclosing": enclosing})


def maximal_hausdorff(x, handle, adjoin_samples) -> Certificate:
    """adjoin_samples: list of (outside point, partner inside) pairs showing
    that adjoining the outside point creates a non-separable pair."""
    return Certificate("maximal-hausdorff", {"x": x, "handle": handle,
                                             "adjoin_samples": tuple(adjoin_samples)})


def hausdorff_open(basics, extra_points) -> Certificate:
    """The union of `basics` and `extra_points` holds no non-separable pair."""
    return Certificate("hausdorff-open", {"basics": tuple(basics),
                                          "extra_points": tuple(extra_points)})


def baire_point(point, probe, members) -> Certificate:
    """`point` lies in the basic `probe` and in every dense member."""
    return Certificate("baire-point", {"point": point, "probe": probe,
                                       "members": tuple(members)})
