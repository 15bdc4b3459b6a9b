// Must not compile: a Status result discarded as a statement. Status is
// a [[nodiscard]] type and every target builds with -Werror=unused-result.
#include "src/sim/status.h"

nova::Status Map(int page);

void Caller() { Map(1); }
