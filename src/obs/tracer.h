// Sim-time span tracer with Chrome trace-event / Perfetto export.
//
// Components emit spans — named intervals of simulated time on a track —
// for the RPC lifecycle (issue, retry/backoff, wire transfer, server
// service), cache miss fills, delayed-write cleanings, and consistency
// recalls. WriteChromeTrace renders the span stream as Chrome trace-event
// JSON ("X" complete events in the JSON object format), which loads
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track conventions: each simulated machine is a "process" (clients at
// pid 100+id, servers at pid 1000+id) with one main track, named via trace
// metadata events. Timestamps are simulated microseconds, which is exactly
// the unit the trace-event format expects.
//
// Span names, categories, and argument keys are string literals owned by
// the emitting call sites; the tracer stores the pointers, never copies of
// the strings. Each span is stored as a fixed 40-byte header in one deque
// and only the args actually passed in a second one, so emission appends
// to two deques (an occasional fixed-size block allocation, never a
// whole-store reallocation) and memory grows with what was recorded.

#ifndef SPRITE_DFS_SRC_OBS_TRACER_H_
#define SPRITE_DFS_SRC_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/units.h"

namespace sprite {

// One row in the trace viewer; pid groups rows into processes.
struct SpanTrack {
  int32_t pid = 0;
  int32_t tid = 1;

  bool operator==(const SpanTrack&) const = default;
};

inline constexpr int32_t kClientPidBase = 100;
inline constexpr int32_t kServerPidBase = 1000;
inline constexpr int32_t kMetricsPid = 9999;

inline constexpr SpanTrack ClientTrack(int64_t client) {
  return SpanTrack{kClientPidBase + static_cast<int32_t>(client), 1};
}
inline constexpr SpanTrack ServerTrack(int64_t server) {
  return SpanTrack{kServerPidBase + static_cast<int32_t>(server), 1};
}

// Process a counter/gauge name belongs to in the trace export: per-machine
// instruments ("server.<N>.x", "client.<N>.x") land on that machine's
// process so their counter tracks line up with its spans; everything else
// goes to the synthetic metrics process.
int32_t CounterTrackPid(std::string_view name);

struct Span {
  struct Arg {
    const char* key = "";
    int64_t value = 0;

    bool operator==(const Arg&) const = default;
  };
  static constexpr int kMaxArgs = 6;

  const char* name = "";
  const char* category = "";
  SpanTrack track;
  SimTime start = 0;
  SimDuration duration = 0;
  Arg args[kMaxArgs] = {};
  int num_args = 0;

  bool operator==(const Span& other) const {
    if (std::string_view(name) != other.name ||
        std::string_view(category) != other.category || !(track == other.track) ||
        start != other.start || duration != other.duration || num_args != other.num_args) {
      return false;
    }
    for (int i = 0; i < num_args; ++i) {
      if (!(args[i] == other.args[i]) ||
          std::string_view(args[i].key) != other.args[i].key) {
        return false;
      }
    }
    return true;
  }
};

class SpanTracer {
 public:
  // Read-only view of the recorded spans, in emission order. Elements are
  // materialized as Span values on access.
  class SpanView {
   public:
    class Iterator {
     public:
      // A forward iterator whose reference is a Span value (a proxy, like
      // std::views::iota's), hence the input category for legacy code.
      using iterator_concept = std::forward_iterator_tag;
      using iterator_category = std::input_iterator_tag;
      using value_type = Span;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Span;

      Iterator() = default;
      Span operator*() const { return tracer_->SpanAt(index_); }
      Iterator& operator++() {
        ++index_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator prev = *this;
        ++index_;
        return prev;
      }
      bool operator==(const Iterator&) const = default;

     private:
      friend class SpanView;
      Iterator(const SpanTracer* tracer, size_t index) : tracer_(tracer), index_(index) {}
      const SpanTracer* tracer_ = nullptr;
      size_t index_ = 0;
    };

    size_t size() const { return tracer_->headers_.size(); }
    bool empty() const { return tracer_->headers_.empty(); }
    Span operator[](size_t i) const { return tracer_->SpanAt(i); }
    Iterator begin() const { return Iterator(tracer_, 0); }
    Iterator end() const { return Iterator(tracer_, size()); }

   private:
    friend class SpanTracer;
    explicit SpanView(const SpanTracer* tracer) : tracer_(tracer) {}
    const SpanTracer* tracer_;
  };

  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void SetProcessName(int32_t pid, std::string name) {
    process_names_[pid] = std::move(name);
  }
  void SetThreadName(SpanTrack track, std::string name) {
    thread_names_[{track.pid, track.tid}] = std::move(name);
  }

  // Records one span. `name`, `category`, and arg keys must be string
  // literals (or otherwise outlive the tracer). Extra args beyond
  // Span::kMaxArgs are dropped.
  void Emit(const char* name, const char* category, SpanTrack track, SimTime start,
            SimDuration duration, std::initializer_list<Span::Arg> args = {});

  SpanView spans() const { return SpanView(this); }
  // Drops recorded spans (track names are wiring, not measurements, and are
  // kept) — used to discard a warmup window.
  void Reset() {
    headers_.clear();
    args_.clear();
  }

  // Writes the full trace as Chrome trace-event JSON, event by event. When
  // `metrics` is non-null, every retained snapshot's counters and gauges are
  // exported as "C" (counter) events on a synthetic metrics process, so
  // Perfetto plots them as counter tracks alongside the spans.
  void WriteChromeTrace(std::ostream& out, const MetricsRegistry* metrics = nullptr) const;

 private:
  // The stored form of one span: its args are args_[first_arg, first_arg +
  // num_args) (a 32-bit index: a store holds under 2^32 args, 64 GiB of
  // them), and its category is an index into categories_ (a handful of
  // distinct literals), which keeps the header at 40 bytes.
  struct SpanHeader {
    const char* name;
    SimTime start;
    SimDuration duration;
    SpanTrack track;
    uint32_t first_arg;
    uint16_t category;
    uint16_t num_args;
  };
  static_assert(sizeof(SpanHeader) <= 40, "span header must stay compact");

  Span SpanAt(size_t i) const;
  // Index of `category` in categories_, appending it when new. Compares
  // pointers first (one literal per call site) and content second, so the
  // table holds each distinct category string once.
  uint16_t CategoryIndex(const char* category);

  std::deque<SpanHeader> headers_;
  std::deque<Span::Arg> args_;
  std::vector<const char*> categories_;
  std::map<int32_t, std::string> process_names_;
  std::map<std::pair<int32_t, int32_t>, std::string> thread_names_;
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_TRACER_H_
