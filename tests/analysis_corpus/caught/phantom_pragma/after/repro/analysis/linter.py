"""The rule engine.

As 47a8d39 rephrased it: findings are filtered through inline
suppression comments, and no text here spells one out.
"""

import re

#: matches trailing suppression comments (introduced by a hash and
#: the tool name)
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)
