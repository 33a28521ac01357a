"""Names and limits of the regression families.

The command-line parser needs them to list its choices; this module
holds no code, so parsing compiles none of ``regression``, which
re-exports these names.
"""

MODEL_FAMILIES = ("linear", "polynomial", "logarithmic", "power", "exponential")
# the metrics compare_models can rank families by
SELECTION_CRITERIA = ("eta", "r_squared", "sse")

MAX_POLY_DEGREE = 6
