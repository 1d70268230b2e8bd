"""Bundled analysis rules. Importing this package registers every rule
with the framework registry (each module uses @framework.register)."""

from . import banned_random     # noqa: F401
from . import detached_thread   # noqa: F401
from . import direct_index_build  # noqa: F401
from . import include_cycle     # noqa: F401
from . import naked_mutex       # noqa: F401
from . import operator_name_lookup  # noqa: F401
from . import pragma_once       # noqa: F401
from . import raw_chrono_metric  # noqa: F401
from . import raw_file_io       # noqa: F401
from . import raw_new_delete    # noqa: F401
from . import raw_socket        # noqa: F401
from . import raw_trace_span    # noqa: F401
