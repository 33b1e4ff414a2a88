#include "src/task/command.h"

#include <utility>

namespace nimbus {

void Command::ResetKeepingCapacity() {
  // Park the capacity-bearing vectors, reset the whole command from a default, then hand
  // the (cleared) vectors back: a field added later is reset too without being listed here.
  std::vector<LogicalObjectId> kept_reads = std::move(read_set);
  std::vector<LogicalObjectId> kept_writes = std::move(write_set);
  std::vector<CommandId> kept_before = std::move(before);
  ParameterBlob kept_params = std::move(params);
  *this = Command{};
  kept_reads.clear();
  kept_writes.clear();
  kept_before.clear();
  kept_params.clear();
  read_set = std::move(kept_reads);
  write_set = std::move(kept_writes);
  before = std::move(kept_before);
  params = std::move(kept_params);
}

}  // namespace nimbus
