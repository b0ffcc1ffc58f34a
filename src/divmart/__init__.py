"""divmart: exact martingales on the binary tree with prescribed divergence
sets.

Given a finite union of closed null subsets of Cantor space, each the
intersection of nested clopen stages whose measures tend to 0 (a listed
stage's measure is checked against its declared rate when the spec is
read), the package constructs a [0,1]-valued martingale whose set of
divergence is exactly that set, in exact dyadic arithmetic, together with
point-by-point divergence/convergence certificates, graded density
separators, and Doob diagnostics.

Every public name is imported from its home module on first use (PEP 562),
so `import divmart` loads no submodule, and a command or a script pays
only for the modules it touches.

Every public name has a caller in the package, in its benchmark harness
(perfbench/) or in the README.  Call the name that does the work: a
target is `EvenZeros()`, `Singleton(point)` or `ExplicitGDelta(stages,
parse_rate(text))`, parts combine as `CombinedMartingale(parts, tail)`,
a step function embeds as `EmbeddedMartingale(h)`, and a table passes
the identity check when `first_identity_violation(table)` is None.  The
one wrapper left, `gdelta_martingale(target)`, is
`SynthesizedMartingale(target)`, kept because `measure` and the harness
call it.  Each answer has one source: a point is in a target or a union
exactly when its `exit_stage` is None, and a truncation mean is the
descent sum that also fills a table.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    "BitString": "bits",
    "CertifiedConvergent": "analysis",
    "CertifiedDivergent": "analysis",
    "ClopenSet": "clopen",
    "ClosedPieceSet": "fine",
    "CombinedMartingale": "synthesis",
    "ConstantPart": "synthesis",
    "Dyadic": "dyadic",
    "EmbeddedMartingale": "synthesis",
    "EvenZeros": "sets",
    "ExplicitGDelta": "sets",
    "GDeltaSet": "sets",
    "HorizonExhausted": "errors",
    "Inconclusive": "analysis",
    "KERNEL_NAME": "kernel",
    "MartingaleTable": "table",
    "OscillationReport": "analysis",
    "ParseError": "errors",
    "Point": "bits",
    "SeparatorFunction": "fine",
    "SigmaThreeSet": "sets",
    "Singleton": "sets",
    "StageCertificate": "synthesis",
    "StepFunction": "fine",
    "SynthesizedMartingale": "synthesis",
    "UndefinedAtPoint": "errors",
    "UpcrossingStats": "analysis",
    "certify_convergence": "analysis",
    "certify_divergence": "analysis",
    "check_interpolation": "fine",
    "divergence_measure_bound": "analysis",
    "doob_diagnostic": "analysis",
    "first_identity_violation": "analysis",
    "gdelta_martingale": "synthesis",
    "limit_function": "analysis",
    "lusin_menchoff": "fine",
    "mean_trace": "fine",
    "osc_window": "analysis",
    "parse_rate": "sets",
    "sigma3_pipeline": "synthesis",
    "urysohn": "fine",
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
