// The untraced build: no layer is wrapped, so there is nothing to record.
#include "trace.h"

namespace perfbench::trace {

bool enabled() { return false; }
void reset() {}
Totals read() { return {}; }

}  // namespace perfbench::trace
