// Must not compile: a switch over a project enum that hides unhandled
// enumerators behind `default:`. Every target builds with
// -Werror=switch-enum, so a newly appended enumerator cannot slip past.
#include "src/sim/status.h"

int Classify(nova::Status s) {
  switch (s) {
    case nova::Status::kSuccess:
      return 0;
    default:
      return 1;
  }
}
