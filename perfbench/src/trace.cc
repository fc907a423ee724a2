#include "trace.h"

#include <cstdio>

namespace perfbench {

std::map<std::string, SpanTotals> Summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanTotals& t = totals[s.name];
      double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.count++;
      t.total_ms += ms;
      t.self_ms += ms - static_cast<double>(child_ns[i]) / 1e6;
      t.durations_ms.push_back(ms);
    }
  }
  return totals;
}

bool WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const SpanLog*>>&
                    logs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "leg\tlog\tindex\tname\tparent\tjob\tstart_ns\tend_ns\n");
  for (size_t l = 0; l < logs.size(); ++l) {
    const auto& spans = logs[l].second->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s\t%zu\t%zu\t%s\t%d\t%lld\t%lld\t%lld\n",
                   logs[l].first.c_str(), l, i, s.name, s.parent,
                   static_cast<long long>(s.job),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
