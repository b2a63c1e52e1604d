// bgpcc-lint fixture: L1 must stay silent — the accepted idiom. A core
// file includes only measurement-layer headers: simulated collectors
// reach the engine as MRT bytes (synth::ingest), so core needs no
// simulator type.
#include <istream>

#include "core/ingest.h"
#include "mrt/mrt.h"
#include "netbase/error.h"

namespace fixture {

// A string that mentions a simulator header is not an include.
inline const char* kNote = "#include \"sim/collector.h\"";

}  // namespace fixture
