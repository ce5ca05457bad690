"""Certificates: finite, independently re-checkable witnesses.

Every boolean verdict in the engine ships one; `kernel.verify_certificate`
re-derives the attested fact from scratch without trusting the producer.

`SCHEMA` is the one description of a payload: each kind's fields in payload
order, each with its shape.  The constructors are built from it, and the
verifier checks every payload against it before any check runs.  A point,
basic or word generator is one of the space's; a rational is a Fraction or
an int; a flag is a bool and a name a str; an index map sends points to
naturals.  `CONTAINERS` holds each collection shape's container.
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


SCHEMA = {
    "separated-by": "p:point, q:point, b1:basic, b2:basic",
    "twin-pair": "p:point, q:point",
    "uncovered": "point:point, chosen:basics",
    "covered": "probes:points, chosen:basics",
    # candidates: candidate point -> index of the family member excluding it
    "excluded-by": "family:name, candidates:index map",
    "chain": "links:basics, src:point, dst:point, removed:point set",
    "homeo-word": "word:word, src:point, dst:point, involutive:flag",
    "compact": "center:point, radius:rational, closed_interval:rationals, enclosing:basic",
    # (outside point, partner inside) pairs: adjoining the outside point
    # creates a non-separable pair
    "maximal-hausdorff": "x:point, handle:basic, adjoin_samples:point pairs",
    # the union of `basics` and `extra_points` holds no non-separable pair
    "hausdorff-open": "basics:basics, extra_points:points",
    # `point` lies in the basic `probe` and in every dense member
    "baire-point": "point:point, probe:basic, members:basics",
}
SCHEMA = {kind: tuple(tuple(f.split(":")) for f in fields.split(", "))
          for kind, fields in SCHEMA.items()}  # kind -> ((field, shape), ...)

CONTAINERS = {"points": tuple, "point set": frozenset, "point pairs": tuple, "basics": tuple,
              "word": tuple, "rationals": list, "index map": dict}


def _constructor(kind, name):
    fields = SCHEMA[kind]
    names = tuple(f for f, _ in fields)
    required = frozenset(names)
    flags = tuple(f for f, shape in fields if shape == "flag")
    convert = tuple((f, CONTAINERS.get(shape)) for f, shape in fields)

    def make(*args, **kwargs):
        if kwargs or len(args) != len(names):  # not every field by position
            pl = dict(zip(names, args), **kwargs)
            for f in flags:  # a flag defaults to False
                pl.setdefault(f, False)
            if len(args) + len(kwargs) > len(names) or pl.keys() != required:
                raise TypeError("%s takes the fields %s" % (name, ", ".join(names)))
            args = [pl[f] for f in names]
        return Certificate(kind, {f: a if to is None else to(a)
                                  for (f, to), a in zip(convert, args)})
    make.__name__ = make.__qualname__ = name
    make.__doc__ = "Certificate(%r, {%s})" % (kind, ", ".join(names))
    return make


separated_by = _constructor("separated-by", "separated_by")
twin_pair = _constructor("twin-pair", "twin_pair")
uncovered = _constructor("uncovered", "uncovered")
covered = _constructor("covered", "covered")
excluded_by = _constructor("excluded-by", "excluded_by")
chain = _constructor("chain", "chain")
homeo_word = _constructor("homeo-word", "homeo_word")
compact_cert = _constructor("compact", "compact_cert")
maximal_hausdorff = _constructor("maximal-hausdorff", "maximal_hausdorff")
hausdorff_open = _constructor("hausdorff-open", "hausdorff_open")
baire_point = _constructor("baire-point", "baire_point")
