"""Total covers of undirected graphs.

A total cover is a set of vertices and edges such that every other
vertex and edge of the graph is adjacent or incident to a member.  The
package provides a matching-based approximation that certifies a factor
of two on every run, an exact oracle for desk-scale verification, two
baseline constructions, deterministic instance generators, and a command
line front end (``tcover``).
"""

from .approx import *
from .exact import *
from .graph import *
from .instances import *
from .matching import *

# each module lists its own public names; the package re-exports them, module by module
__all__ = (approx.__all__ + exact.__all__ + graph.__all__ + instances.__all__
           + matching.__all__)
