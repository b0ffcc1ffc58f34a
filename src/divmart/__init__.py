"""divmart: exact martingales on the binary tree with prescribed divergence
sets.

Given a finite union of closed null subsets of Cantor space, each the
intersection of nested clopen stages whose measures tend to 0 (a listed
stage's measure is checked against its declared rate when the spec is
read), the package constructs a [0,1]-valued martingale whose set of
divergence is exactly that set, in exact dyadic arithmetic, together with
point-by-point divergence/convergence certificates, graded density
separators, and Doob diagnostics.
"""

from .analysis import (
    CertifiedConvergent,
    CertifiedDivergent,
    Inconclusive,
    OscillationReport,
    UpcrossingStats,
    certify_convergence,
    certify_divergence,
    check_identity,
    divergence_measure_bound,
    doob_diagnostic,
    first_identity_violation,
    limit_function,
    osc_window,
)
from .bits import BitString, Point
from .clopen import ClopenSet
from .dyadic import Dyadic
from .errors import HorizonExhausted, ParseError, UndefinedAtPoint
from .fine import (
    ClosedPieceSet,
    SeparatorFunction,
    StepFunction,
    check_interpolation,
    lusin_menchoff,
    mean_trace,
    urysohn,
)
from .kernel import KERNEL_NAME
from .sets import (
    EvenZeros,
    ExplicitGDelta,
    GDeltaSet,
    Membership,
    SigmaThreeSet,
    Singleton,
    density_ratio,
    even_zeros,
    membership,
    parse_rate,
    singleton,
)
from .synthesis import (
    CombinedMartingale,
    ConstantPart,
    EmbeddedMartingale,
    StageCertificate,
    SynthesizedMartingale,
    embed_continuous,
    gdelta_martingale,
    sigma3_pipeline,
    union_combine,
)
from .table import MartingaleTable

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "CertifiedConvergent",
    "CertifiedDivergent",
    "ClopenSet",
    "ClosedPieceSet",
    "CombinedMartingale",
    "ConstantPart",
    "Dyadic",
    "EmbeddedMartingale",
    "EvenZeros",
    "ExplicitGDelta",
    "GDeltaSet",
    "HorizonExhausted",
    "Inconclusive",
    "KERNEL_NAME",
    "MartingaleTable",
    "Membership",
    "OscillationReport",
    "ParseError",
    "Point",
    "SeparatorFunction",
    "SigmaThreeSet",
    "Singleton",
    "StageCertificate",
    "StepFunction",
    "SynthesizedMartingale",
    "UndefinedAtPoint",
    "UpcrossingStats",
    "certify_convergence",
    "certify_divergence",
    "check_identity",
    "check_interpolation",
    "density_ratio",
    "divergence_measure_bound",
    "doob_diagnostic",
    "embed_continuous",
    "even_zeros",
    "first_identity_violation",
    "gdelta_martingale",
    "limit_function",
    "lusin_menchoff",
    "mean_trace",
    "membership",
    "osc_window",
    "parse_rate",
    "sigma3_pipeline",
    "singleton",
    "union_combine",
    "urysohn",
]
