"""Kept only for perfbench: its layer spans bind two names here.

The rate ceiling, the feasibility test and the inner time split live in
`qos`, golden section in `experiments`.  `perfbench/spans.py` still
binds `throughput_max.golden_section_max` and
`throughput_max.newton_bisect`, so this module goes once perfbench reads
work counts from the library instead (ROADMAP.md, "Work counts from the
library").
"""

from .experiments import golden_section_max  # noqa: F401
from .qos import newton_bisect  # noqa: F401
