// Test helper: a SpanSink that keeps every span it receives, so a test can
// check all the spans of a run, not only the tracer's retained window.

#ifndef SPRITE_DFS_TESTS_OBS_SPAN_COLLECTOR_H_
#define SPRITE_DFS_TESTS_OBS_SPAN_COLLECTOR_H_

#include <vector>

#include "src/obs/tracer.h"

namespace sprite {

struct SpanCollector : SpanSink {
  void Add(const Span& span) override { spans.push_back(span); }
  void Reset() override { spans.clear(); }
  std::vector<Span> spans;
};

}  // namespace sprite

#endif  // SPRITE_DFS_TESTS_OBS_SPAN_COLLECTOR_H_
