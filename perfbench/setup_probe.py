"""Set-up probe: import qmink and load the builtins named on the command line.

    python3 perfbench/setup_probe.py lorentz coaction
"""

import sys

import qmink.cli  # noqa: F401  (the import a `qmink` command pays)
from qmink.dsl import builtin

for name in sys.argv[1:]:
    builtin(name)
