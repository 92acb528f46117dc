"""Exact invariants and existence certificates for links of weighted
homogeneous hypersurface singularities and their cyclic branched covers.

Everything is exact arithmetic over arbitrary-precision integers and
rationals: Betti numbers and torsion orders of the links, the genus of the
orbit curve in three variables, Fano/klt/Kähler-Einstein certificate
inequalities, effective parameter counts, and bounded enumeration scans
that regenerate the known families as machine-checkable catalogs.
"""

__version__ = "0.1.0"

from . import arith, errors, ke_cert, links, moduli, survey, topology
from .arith import *
from .errors import *
from .ke_cert import *
from .links import *
from .moduli import *
from .survey import *
from .topology import *

# each module's __all__ is its list of public names; this is their union
__all__ = [
    "__version__",
    *arith.__all__,
    *errors.__all__,
    *links.__all__,
    *topology.__all__,
    *ke_cert.__all__,
    *moduli.__all__,
    *survey.__all__,
]
