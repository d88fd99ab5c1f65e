"""Vaccine responder calls from paired immunoassay counts.

Given pre/post positive counts for primary samples and for paired
controls processed in the same assay runs, this package computes a
one-sided p-value for a post-vaccination increase together with two
misclassification-adjusted companions: a worst-case (maximally
adjusted) p-value that is valid under any run-level false positive and
false negative rates the controls cannot rule out, and a best-case
(minimally adjusted) p-value that moves the unadjusted value as little
as those controls allow.
"""

from . import adjust, debias, fdr, nuisance, simulate, studyio
from .adjust import *
from .debias import *
from .fdr import *
from .nuisance import *
from .simulate import *
from .studyio import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *debias.__all__,
    *nuisance.__all__,
    *adjust.__all__,
    *fdr.__all__,
    *simulate.__all__,
    *studyio.__all__,
]
