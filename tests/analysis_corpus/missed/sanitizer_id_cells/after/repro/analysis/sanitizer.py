"""The shadow cells as 7d8a447 fixed them: each holds a weak reference
to its object and starts afresh when the address has a new owner."""

import weakref


class Shadow:
    def __init__(self, owner) -> None:
        self.owner_name = type(owner).__name__
        self.lockset = None
        try:
            self.alive = weakref.ref(owner)
        except TypeError:
            self.alive = None


def shadow_of(shadows, owner, field_name):
    key = (type(owner).__name__, field_name, id(owner))
    shadow = shadows.get(key)
    if (
        shadow is not None
        and shadow.alive is not None
        and shadow.alive() is not owner
    ):
        shadow = None  # the address belongs to a new object
    if shadow is None:
        shadow = shadows[key] = Shadow(owner)
    return shadow
