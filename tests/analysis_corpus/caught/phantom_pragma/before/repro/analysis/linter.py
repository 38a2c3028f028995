"""The rule engine.

As ``src/repro/analysis/linter.py`` held it at 0c78fb2: text
documenting the pragma syntax matches the pragma regex, so the
engine filters findings through inline
``# repro-lint: disable=RULE`` pragmas -- two phantom suppressions
(META001).
"""

import re

#: matches ``# repro-lint: disable=DET001`` / ``disable-file=DET001,CTR003``
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)
