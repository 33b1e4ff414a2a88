#include "src/common/serialize.h"

#include <cstdlib>

namespace nimbus::internal {

void BlobOverrun(std::size_t need, std::size_t remaining) {
  NIMBUS_CHECK_LE(need, remaining) << "read past the end of a blob";
  std::abort();  // unreachable: the CHECK above fails (or throws under ScopedCheckThrow)
}

}  // namespace nimbus::internal
