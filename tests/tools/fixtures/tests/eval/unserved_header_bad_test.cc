// Fixture: a test that includes the header. Tests do not serve it.
#include "eval/unserved_header_bad.h"

int main() { return rrr::eval::OnionLayerCount(4) == 2 ? 0 : 1; }
