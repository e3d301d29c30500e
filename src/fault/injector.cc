#include "fault/injector.h"

namespace acps::fault {

const char* ToString(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kNone:      return "none";
    case FaultKind::kDrop:      return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kStaleRead: return "stale-read";
    case FaultKind::kCorrupt:   return "corrupt";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kCrash:     return "crash";
  }
  return "?";
}

}  // namespace acps::fault
