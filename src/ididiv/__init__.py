"""Diversifying peer behavior models for interactive planning.

Pipeline: complete policy trees describe candidate peer behaviors; their
behavior matrix factors exactly into pivot features; features anchor the
sampling of new trees; diversity measures drive greedy top-K accumulation;
the resulting candidate set is flattened into an exact single-agent planning
problem for the subject agent; repeated interaction rounds measure how the
subject fares against true peer behavior inside or outside the set.

Each module's ``__all__`` is the one list of what it exports, and the
package exports every name in them.  The command line, ``ididiv.cli``, is
not imported here.
"""

from . import (
    diversity, domains, features, flattening, generation, runs, selection, simulate, solver, trees,
)
from .trees import *  # noqa: F403
from .domains import *  # noqa: F403
from .solver import *  # noqa: F403
from .features import *  # noqa: F403
from .diversity import *  # noqa: F403
from .generation import *  # noqa: F403
from .selection import *  # noqa: F403
from .flattening import *  # noqa: F403
from .simulate import *  # noqa: F403
from .runs import *  # noqa: F403

__all__ = (
    trees.__all__
    + domains.__all__
    + solver.__all__
    + features.__all__
    + diversity.__all__
    + generation.__all__
    + selection.__all__
    + flattening.__all__
    + simulate.__all__
    + runs.__all__
)

__version__ = TOOL_VERSION  # noqa: F405
