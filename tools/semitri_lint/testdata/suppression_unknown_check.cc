// Fixture: a waiver must name a check that exists. An allow() naming an
// unknown check (a typo, or a check that was deleted) is itself a
// finding, even with a reason; a waiver naming a real check still
// holds. Loaded with the path "src/fixture/suppression_unknown_check.cc".

#include "common/status.h"

namespace semitri::fixture {

common::Status DoWork();

int Sum(const int* xs, int n) {
  int total = 0;
  // semitri-lint: allow(no-such-check) — FLAG: names no check
  for (int i = 0; i < n; ++i) total += xs[i];
  return total;
}

void KnownWaiver() {
  // semitri-lint: allow(unchecked-status) — fixture: a real check name
  // is honored and not reported.
  DoWork();
}

}  // namespace semitri::fixture
