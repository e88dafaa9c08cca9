#ifndef ECA_EXEC_EXPLAIN_H_
#define ECA_EXEC_EXPLAIN_H_

#include <string>
#include <vector>

#include "exec/executor.h"

namespace eca {

// EXPLAIN ANALYZE rendering of an execution profile (ExecStats::profile,
// recorded by the Executor run that produced the result): the plan tree
// annotated with actual rows and per-operator time. Handy for
// understanding where a compensated plan spends its work (e.g. the
// best-match sort after a generalized outerjoin). Nodes whose step ran
// fused into another node's loop are marked "(fused)".
std::string ExplainAnalyze(const std::vector<NodeProfile>& profile);

}  // namespace eca

#endif  // ECA_EXEC_EXPLAIN_H_
