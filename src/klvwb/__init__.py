"""klvwb: Kazhdan-Lusztig-Vogan polynomials over combinatorial orbit datums."""

__version__ = "0.1.0"

from .laurent import LaurentPoly, PoincareSeries

__all__ = ["LaurentPoly", "PoincareSeries", "__version__"]
