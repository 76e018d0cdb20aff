// Fixture: a library caller outside tests/ that includes the header, which
// serves it. (A commented-out `#include "eval/other.h"` counts for nothing.)
#include "eval/unserved_header_bad.h"

namespace rrr {
namespace core {

int Layers(int n) { return eval::OnionLayerCount(n); }

}  // namespace core
}  // namespace rrr
