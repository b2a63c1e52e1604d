// bgpcc-lint fixture: L1 must fire — a file of the core layer (the layer
// is the directory holding the file, here core/) including simulator
// headers. Quoted and angle-bracket includes both count; a commented-out
// include does not.
#include "core/stream.h"
#include "sim/collector.h"  // BAD: core would depend on the simulator
#include <synth/beacon_internet.h>  // BAD: the synth layer, bracketed
// #include "router/router.h" — commented out, so not an include

namespace fixture {

struct Log {};

}  // namespace fixture
