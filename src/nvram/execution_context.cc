#include "nvram/execution_context.h"

namespace sage::nvram {

MemoryTracker& Memory() { return ExecutionContext::Current().memory_tracker(); }

}  // namespace sage::nvram
