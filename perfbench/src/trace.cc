#include "src/trace.h"

#include <cstdio>

namespace perfbench {

int32_t Tracer::Begin(const char* name, uint64_t round) {
  Span s;
  s.name = name;
  s.round = round;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  Span& s = spans_[static_cast<size_t>(index)];
  s.end_ns = NowNs();
  open_.pop_back();
  if (s.parent >= 0) {
    spans_[static_cast<size_t>(s.parent)].child_ns += s.end_ns - s.start_ns;
  }
}

std::map<std::string, Tracer::NameStats> Tracer::StatsByName(size_t first) const {
  std::map<std::string, NameStats> out;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameStats& st = out[s.name];
    st.self_s += static_cast<double>(s.end_ns - s.start_ns - s.child_ns) * 1e-9;
    ++st.count;
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "index,name,start_ns,end_ns,parent,round\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%s,%lld,%lld,%d,%llu\n", i, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.round));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
