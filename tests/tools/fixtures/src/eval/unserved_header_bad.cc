// Fixture: the header's own implementation file. Including its own header
// does not serve it.
#include "eval/unserved_header_bad.h"

namespace rrr {
namespace eval {

int OnionLayerCount(int n) { return n / 2; }

}  // namespace eval
}  // namespace rrr
