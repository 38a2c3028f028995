"""The lockset sanitizer's shadow cells as
``src/repro/analysis/sanitizer.py`` held them before 7d8a447: keyed
by ``id(owner)``, so an object allocated at a collected one's address
inherits the dead object's lockset and "races" with it.  No rule
fires."""


class Shadow:
    def __init__(self, owner_name: str) -> None:
        self.owner_name = owner_name
        self.lockset = None


def shadow_of(shadows, owner, field_name):
    key = (type(owner).__name__, field_name, id(owner))
    shadow = shadows.get(key)
    if shadow is None:
        shadow = shadows[key] = Shadow(type(owner).__name__)
    return shadow
