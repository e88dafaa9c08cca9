#include "exec/explain.h"

#include "common/str_util.h"

namespace eca {

std::string ExplainAnalyze(const std::vector<NodeProfile>& profile) {
  std::string out;
  for (const NodeProfile& p : profile) {
    out += StrFormat("%s%-40s rows=%-8lld %8.3f ms%s\n",
                     std::string(static_cast<size_t>(p.depth) * 2, ' ')
                         .c_str(),
                     p.label.c_str(), static_cast<long long>(p.rows), p.ms,
                     p.fused ? " (fused)" : "");
  }
  return out;
}

}  // namespace eca
