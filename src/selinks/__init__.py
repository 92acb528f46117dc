"""Exact invariants and existence certificates for links of weighted
homogeneous hypersurface singularities and their cyclic branched covers.

Everything is exact arithmetic over arbitrary-precision integers and
rationals: Betti numbers and torsion orders of the links, the genus of the
orbit curve in three variables, Fano/klt/Kähler-Einstein certificate
inequalities, effective parameter counts, and bounded enumeration scans
that regenerate the known families as machine-checkable catalogs.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: the first public name asked for, or __all__, imports the library,
    # so a command loads only the modules it runs; `from . import` would recurse
    from importlib import import_module

    # each module's __all__ is its list of public names; this is their union
    shorts = ("arith", "errors", "links", "topology", "ke_cert", "moduli", "survey")
    modules = [import_module(f"{__name__}.{short}") for short in shorts]
    globals()["__all__"] = ["__version__", *(n for module in modules for n in module.__all__)]
    globals().update((n, getattr(module, n)) for module in modules for n in module.__all__)
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
