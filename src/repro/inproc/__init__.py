"""In-process shared-library engine: where every AccMoS case runs.

``repro.inproc`` loads the reusable compiled program (built once with
``-shared -fPIC``, content-addressed in the artifact cache) via
``ctypes`` and exchanges packed binary structs with it — zero process
spawns, zero text formatting or parsing.  See :mod:`repro.inproc.abi`
for the wire layouts, :mod:`repro.inproc.library` for loading,
isolation, and typed library faults, and :mod:`repro.inproc.parallel` for
the instance pool behind thread-parallel execution (``ctypes`` releases
the GIL around ``acc_lib_run_case``, so N instances run on N cores).
"""

from repro.inproc.abi import (
    ABI_VERSION,
    ResultDecoder,
    decode_case_binary,
    encode_case_binary,
)
from repro.inproc.library import LibraryFault, LoadedModel
from repro.inproc.parallel import InstancePool, default_instance_pool

__all__ = [
    "ABI_VERSION",
    "InstancePool",
    "LibraryFault",
    "LoadedModel",
    "ResultDecoder",
    "decode_case_binary",
    "default_instance_pool",
    "encode_case_binary",
]
