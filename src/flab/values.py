"""The base of the immutable value classes.

A `Frozen` subclass refuses attribute assignment and deletion.  Its
constructor and fast builders set slots through the slot descriptors or
`object.__setattr__`, and so does a lazily filled cache slot.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
