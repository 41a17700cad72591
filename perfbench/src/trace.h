// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions (engine entry points, per-round probes): name,
// start, end, parent span, and round. Nothing inside the library is
// instrumented. A span's self time is its duration minus the time covered
// by its direct children.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into Tracer::spans(), -1 for a root span
  uint64_t round = 0;
  int64_t child_ns = 0;  // time covered by direct children
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span under the innermost open span; returns its index, or -1
  // when tracing is off.
  int32_t Begin(const char* name, uint64_t round);
  void End(int32_t index);
  // Renames an open span (a call classified by what it emitted).
  void SetName(int32_t index, const char* name) { spans_[static_cast<size_t>(index)].name = name; }

  const std::vector<Span>& spans() const { return spans_; }
  struct NameStats {
    double self_s = 0;
    uint64_t count = 0;
  };
  // Self seconds and span count per name over spans [first, spans().size()).
  std::map<std::string, NameStats> StatsByName(size_t first) const;
  // Writes every span as one CSV line (index,name,start_ns,end_ns,parent,round).
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a no-op when the tracer is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, uint64_t round)
      : tracer_(t != nullptr && t->enabled() ? t : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name, round) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_name(const char* name) {
    if (tracer_ != nullptr) {
      tracer_->SetName(index_, name);
    }
  }

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
