"""Language interoperability: frontends, boundary costs, zero-copy views.

Reproduces section 3's architecture — one implementation, per-language
thin wrappers over flat entry points — and the Figure 3 comparison of
access paths (C++, Java built-in, JNI, unsafe, GraalVM smart arrays).
"""

from .boundary import (
    NATIVE_ELEMENT_NS,
    SINGLE_THREAD_STREAM_GBS,
    ScanEstimate,
    estimate_scan,
    figure3_estimates,
    format_figure3,
)
from .frontends import (
    CPP_FRONTEND,
    Frontend,
    JAVA_FRONTEND,
    JavaThinIterator,
    JavaThinSmartArray,
    aggregate_cpp,
    aggregate_java,
)
from .languages import (
    CPP,
    FIGURE3_BINDINGS,
    JAVA_BUILTIN,
    JAVA_JNI,
    JAVA_SMART,
    JAVA_UNSAFE,
    LanguageBinding,
    Runtime,
    binding_by_name,
)
from .paths import (
    InteropPath,
    PATHS,
    PathCharacteristics,
    format_paths,
    path_cost_per_element,
)
from .shared import (
    ArrayDescriptor,
    ForeignArrayView,
    SharedSmartArray,
    attach_view,
    export_replica,
    view_of,
)

__all__ = [
    "ArrayDescriptor",
    "CPP",
    "CPP_FRONTEND",
    "FIGURE3_BINDINGS",
    "ForeignArrayView",
    "InteropPath",
    "Frontend",
    "JAVA_BUILTIN",
    "JAVA_FRONTEND",
    "JAVA_JNI",
    "JAVA_SMART",
    "JAVA_UNSAFE",
    "JavaThinIterator",
    "JavaThinSmartArray",
    "LanguageBinding",
    "NATIVE_ELEMENT_NS",
    "PATHS",
    "PathCharacteristics",
    "Runtime",
    "SINGLE_THREAD_STREAM_GBS",
    "ScanEstimate",
    "SharedSmartArray",
    "aggregate_cpp",
    "aggregate_java",
    "attach_view",
    "binding_by_name",
    "estimate_scan",
    "export_replica",
    "figure3_estimates",
    "format_figure3",
    "format_paths",
    "path_cost_per_element",
    "view_of",
]
