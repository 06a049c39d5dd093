#include "util/check.h"

#include <sstream>

namespace lcs::detail {

void check_failed(const char* condition, const std::string& message) {
  std::ostringstream out;
  out << "LCS_CHECK failed: (" << condition << ")";
  if (!message.empty()) out << " — " << message;
  throw CheckFailure(out.str());
}

}  // namespace lcs::detail
