// Fixture: a library header that only its own .cc and a test include —
// surface nothing serves. Scanned with those two includers it must trip
// unserved-header once; with src/core/unserved_header_clean.cc (a serving
// caller) added, the same scan must be clean.
#ifndef FIXTURE_UNSERVED_HEADER_BAD_H_
#define FIXTURE_UNSERVED_HEADER_BAD_H_

namespace rrr {
namespace eval {

int OnionLayerCount(int n);

}  // namespace eval
}  // namespace rrr

#endif  // FIXTURE_UNSERVED_HEADER_BAD_H_
