"""End-to-end compile-and-measure pipeline."""

from .cache import (BackendCache, FrontendCache,
                    reset_shared_backend_cache, reset_shared_cache,
                    shared_backend_cache, shared_cache)
from .driver import (CompiledProgram, compile_source, module_size,
                     run_frontend)
from .trace import FRONTEND_PASSES, PassEvent, PipelineTrace

__all__ = ["BackendCache", "CompiledProgram",
           "FRONTEND_PASSES", "FrontendCache", "PassEvent",
           "PipelineTrace", "compile_source", "module_size",
           "reset_shared_backend_cache", "reset_shared_cache",
           "run_frontend", "shared_backend_cache", "shared_cache"]
