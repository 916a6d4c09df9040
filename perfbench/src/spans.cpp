#include "spans.hpp"

#include <fstream>

namespace perfbench {

std::map<std::string, SpanTotals> summarize(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      SpanTotals& t = totals[spans[i].name];
      t.count++;
      t.total_ns += duration;
      t.self_ns += duration - child_ns[i];
    }
  }
  return totals;
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tparent\tname\tid\tstart_ns\tend_ns\n";
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << log->thread_name() << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t' << s.id
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
