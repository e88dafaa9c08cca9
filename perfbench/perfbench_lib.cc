#include "perfbench_lib.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "algebra/plan.h"
#include "algebra/plan_parser.h"
#include "common/rng.h"
#include "expr/pred_parser.h"
#include "storage/csv.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

namespace perfbench {

namespace {

constexpr int64_t kTailSamples = 10;

// 1-based nearest rank of the q-quantile among n samples. The epsilon keeps
// q * n from rounding up past an exact integer (0.95 * 200 = 190).
int64_t NearestRank(double q, int64_t n) {
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (true) {
    size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      out.push_back(text.substr(begin));
      return out;
    }
    out.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
}

// RelationToTbl rows as cell vectors.
std::vector<std::vector<std::string>> TblCells(const std::string& tbl) {
  std::vector<std::vector<std::string>> rows;
  for (std::string& line : Split(tbl, '\n')) {
    if (!line.empty()) rows.push_back(Split(line, '|'));
  }
  return rows;
}

std::string JoinCells(const std::vector<std::string>& row, size_t begin,
                      size_t width) {
  std::string out;
  for (size_t i = 0; i < width; ++i) {
    if (i > 0) out += '|';
    out += row[begin + i];
  }
  return out;
}

// Search state for MatchesUpToRelationOrder.
struct BlockMatch {
  struct Block {
    size_t first_col = 0;
    size_t width = 0;
    std::vector<std::string> content;  // the block's cells, one per row
    std::vector<std::string> sorted;   // `content` as a multiset
  };

  std::vector<Block> blocks;                    // reference order
  std::vector<std::string> reference_rows;      // sorted
  const std::vector<std::vector<std::string>>* reply = nullptr;
  size_t total_width = 0;
  std::vector<size_t> reply_offset;             // per block, once assigned
  std::vector<bool> used;
  int64_t full_checks = 0;

  static constexpr int64_t kMaxFullChecks = 4096;

  std::vector<std::string> ReplySlice(size_t offset, size_t width) const {
    std::vector<std::string> out;
    out.reserve(reply->size());
    for (const auto& row : *reply) out.push_back(JoinCells(row, offset, width));
    std::sort(out.begin(), out.end());
    return out;
  }

  bool FullCheck() {
    ++full_checks;
    std::vector<std::string> rows;
    rows.reserve(reply->size());
    for (const auto& row : *reply) {
      std::string line;
      for (size_t b = 0; b < blocks.size(); ++b) {
        if (b > 0) line += '|';
        line += JoinCells(row, reply_offset[b], blocks[b].width);
      }
      rows.push_back(std::move(line));
    }
    std::sort(rows.begin(), rows.end());
    return rows == reference_rows;
  }

  bool Assign(size_t offset) {
    if (offset == total_width) return FullCheck();
    // Blocks with identical per-row content are interchangeable: trying
    // one of them covers the others.
    std::set<std::vector<std::string>> tried;
    for (size_t b = 0; b < blocks.size(); ++b) {
      if (used[b] || offset + blocks[b].width > total_width) continue;
      if (!tried.insert(blocks[b].content).second) continue;
      if (ReplySlice(offset, blocks[b].width) != blocks[b].sorted) continue;
      used[b] = true;
      reply_offset[b] = offset;
      if (Assign(offset + blocks[b].width)) return true;
      used[b] = false;
      if (full_checks >= kMaxFullChecks) return false;
    }
    return false;
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int64_t MinSamplesForPercentile(double q) {
  int64_t n = 1;
  while (n - NearestRank(q, n) < kTailSamples) ++n;
  return n;
}

bool Percentile(std::vector<double> samples, double q, double* out) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) return false;
  const int64_t rank = NearestRank(q, n);
  if (q > 0.5 && n - rank < kTailSamples) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *out = samples[static_cast<size_t>(rank - 1)];
  return true;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name) : rec_(rec) {
  if (!rec_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  span.query = rec_->query_;
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(std::move(span));
  rec_->open_.push_back(index_);
  rec_->spans_.back().start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  rec_->spans_[static_cast<size_t>(index_)].end_ns = NowNs();
  rec_->open_.pop_back();
}

std::string SpanRecorder::ToChromeJson() const {
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.query));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

eca::Database ServeCatalog() {
  eca::Rng rng(20180610);
  return eca::RandomDatabase(rng, 10);
}

std::vector<ServeRequest> MakeServeStream(uint64_t seed, int count) {
  eca::Rng rng(seed);
  std::vector<ServeRequest> out;
  out.reserve(static_cast<size_t>(count));
  std::map<std::string, int> first_seen;
  std::vector<int> distinct;  // first occurrence of each distinct payload
  for (int i = 0; i < count; ++i) {
    if (!distinct.empty() && rng.Bernoulli(0.3)) {
      int j = distinct[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(distinct.size()) - 1))];
      ServeRequest again = out[static_cast<size_t>(j)];
      again.repeat = true;
      out.push_back(std::move(again));
      continue;
    }
    eca::RandomQueryOptions qopts;
    qopts.num_rels = static_cast<int>(rng.Uniform(7, 10));
    qopts.allow_full_outer = false;
    qopts.tolerant_pred_prob = 0;
    eca::PlanPtr plan = eca::RandomQuery(rng, qopts, eca::RandomDataOptions());

    ServeRequest req;
    req.message.type = "QUERY";
    req.message.Add("plan", plan->ToInlineString());
    std::vector<eca::Plan*> joins;
    eca::CollectJoins(plan.get(), &joins);
    for (const eca::Plan* j : joins) {
      req.message.Add("pred", j->pred()->label() + "=" + j->pred()->ToString());
    }
    req.message.AddInt("rows", 1);
    req.payload = eca::EncodeMessage(req.message);
    auto [it, inserted] = first_seen.emplace(req.payload, i);
    req.distinct = it->second;
    req.repeat = !inserted;
    if (inserted) distinct.push_back(i);
    out.push_back(std::move(req));
  }
  return out;
}

eca::PlanPtr ParseRequestPlan(const eca::WireMessage& msg) {
  std::map<std::string, eca::PredRef> preds;
  for (const std::string& spec : msg.FindAll("pred")) {
    const size_t eq = spec.find('=');
    if (eq == std::string::npos) return nullptr;
    eca::PredRef p = eca::ParsePredicate(spec.substr(eq + 1), spec.substr(0, eq));
    if (p == nullptr) return nullptr;
    preds[spec.substr(0, eq)] = std::move(p);
  }
  const std::string* text = msg.Find("plan");
  return text == nullptr ? nullptr : eca::ParsePlan(*text, preds);
}

eca::Relation CanonicalRows(const eca::Relation& rel) {
  const eca::Schema& schema = rel.schema();
  std::vector<int> order(static_cast<size_t>(schema.NumColumns()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return schema.column(a).rel_id < schema.column(b).rel_id;
  });
  std::vector<eca::Column> cols;
  for (int i : order) cols.push_back(schema.column(i));
  eca::Relation out{eca::Schema(std::move(cols))};
  for (const eca::Tuple& t : rel.rows()) {
    eca::Tuple u;
    u.reserve(order.size());
    for (int i : order) u.push_back(t[static_cast<size_t>(i)]);
    out.Add(std::move(u));
  }
  out.SortRows();
  return out;
}

bool MatchesUpToRelationOrder(const eca::Relation& reference,
                              const std::string& tbl) {
  std::vector<std::vector<std::string>> ref = TblCells(eca::RelationToTbl(reference));
  std::vector<std::vector<std::string>> reply = TblCells(tbl);
  if (ref.size() != reply.size()) return false;
  if (ref.empty()) return true;

  BlockMatch m;
  m.reply = &reply;
  m.total_width = static_cast<size_t>(reference.schema().NumColumns());
  for (const auto& row : reply) {
    if (row.size() != m.total_width) return false;
  }
  for (size_t c = 0; c < m.total_width; ++c) {
    const int rel = reference.schema().column(static_cast<int>(c)).rel_id;
    if (c == 0 ||
        rel != reference.schema().column(static_cast<int>(c) - 1).rel_id) {
      m.blocks.push_back(BlockMatch::Block{c, 0, {}, {}});
    }
    ++m.blocks.back().width;
  }
  for (auto& block : m.blocks) {
    for (const auto& row : ref) {
      block.content.push_back(JoinCells(row, block.first_col, block.width));
    }
    block.sorted = block.content;
    std::sort(block.sorted.begin(), block.sorted.end());
  }
  for (const auto& row : ref) m.reference_rows.push_back(JoinCells(row, 0, m.total_width));
  std::sort(m.reference_rows.begin(), m.reference_rows.end());
  m.reply_offset.assign(m.blocks.size(), 0);
  m.used.assign(m.blocks.size(), false);
  return m.Assign(0);
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
