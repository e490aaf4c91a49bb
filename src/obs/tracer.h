// Sim-time span tracer with Chrome trace-event / Perfetto export.
//
// Components emit spans — named intervals of simulated time on a track —
// for the RPC lifecycle (issue, retry/backoff, wire transfer, server
// service), cache miss fills, delayed-write cleanings, and consistency
// recalls. The Chrome trace-event JSON they export ("X" complete events in
// the JSON object format) loads directly in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// Track conventions: each simulated machine is a "process" (clients at
// pid 100+id, servers at pid 1000+id) with one main track, named via trace
// metadata events. Timestamps are simulated microseconds, which is exactly
// the unit the trace-event format expects.
//
// Storage is a flight recorder: the tracer keeps only the most recent
// SpanTracer::kCapacity spans, in a flat ring allocated on the first Emit,
// so its memory is fixed however long the run. A complete export goes
// through a SpanSink that sees every span as it is emitted:
// ChromeTraceWriter encodes each one into a temporary file and Finish
// assembles the JSON from it, the same bytes WriteChromeTrace renders from
// the ring when the run fits in it.
//
// Span names, categories, and argument keys are string literals owned by
// the emitting call sites; the tracer stores the pointers, never copies of
// the strings.

#ifndef SPRITE_DFS_SRC_OBS_TRACER_H_
#define SPRITE_DFS_SRC_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/function_ref.h"
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
  Arg args[kMaxArgs] = {};  // only the first num_args are meaningful
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

// Receives every span a SpanTracer records, as it is recorded.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void Add(const Span& span) = 0;
  // Drops every span received so far (SpanTracer::Reset, the warmup cut).
  virtual void Reset() = 0;
};

class SpanTracer {
 public:
  // Spans the ring retains: about 4.5 MiB of 144-byte slots.
  static constexpr size_t kCapacity = size_t{1} << 15;

  // Read-only view of the retained spans (the last kCapacity emitted),
  // oldest first.
  class SpanView {
   public:
    class Iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Span;
      using difference_type = std::ptrdiff_t;
      using pointer = const Span*;
      using reference = const Span&;

      Iterator() = default;
      const Span& operator*() const { return ring_[pos_ & (kCapacity - 1)]; }
      Iterator& operator++() {
        ++pos_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator prev = *this;
        ++pos_;
        return prev;
      }
      bool operator==(const Iterator&) const = default;

     private:
      friend class SpanView;
      Iterator(const Span* ring, size_t pos) : ring_(ring), pos_(pos) {}
      const Span* ring_ = nullptr;
      size_t pos_ = 0;  // emission index; the slot is pos_ mod kCapacity
    };

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const Span& operator[](size_t i) const { return *Iterator(ring_, first_ + i); }
    Iterator begin() const { return Iterator(ring_, first_); }
    Iterator end() const { return Iterator(ring_, first_ + size_); }

   private:
    friend class SpanTracer;
    SpanView(const Span* ring, size_t first, size_t size)
        : ring_(ring), first_(first), size_(size) {}
    const Span* ring_;
    size_t first_;  // emission index of the oldest retained span
    size_t size_;
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

  // Sends every span emitted from now on to `sink` as well (null detaches).
  // The sink must stay alive while attached.
  void SetSink(SpanSink* sink) { sink_ = sink; }
  SpanSink* sink() const { return sink_; }

  // Records one span. `name`, `category`, and arg keys must be string
  // literals (or otherwise outlive the tracer). Extra args beyond
  // Span::kMaxArgs are dropped.
  void Emit(const char* name, const char* category, SpanTrack track, SimTime start,
            SimDuration duration, std::initializer_list<Span::Arg> args = {});

  // Spans emitted since construction or the last Reset, retained or not.
  uint64_t emitted() const { return emitted_; }
  SpanView spans() const {
    const size_t size = emitted_ < kCapacity ? static_cast<size_t>(emitted_) : kCapacity;
    return SpanView(ring_.data(), static_cast<size_t>(emitted_ - size), size);
  }
  // Drops the recorded spans, the sink's included (track names are wiring,
  // not measurements, and are kept) — used to discard a warmup window.
  void Reset() {
    emitted_ = 0;
    if (sink_ != nullptr) {
      sink_->Reset();
    }
  }

  // Writes the retained spans as Chrome trace-event JSON, event by event.
  // When `metrics` is non-null, every retained snapshot's counters and
  // gauges are exported as "C" (counter) events on a synthetic metrics
  // process, so Perfetto plots them as counter tracks alongside the spans.
  void WriteChromeTrace(std::ostream& out, const MetricsRegistry* metrics = nullptr) const;

 private:
  friend class ChromeTraceWriter;

  // The export around the span events: header, track-name metadata, then
  // `write_spans` (which clears `first` once it writes an event), then the
  // counter events and the footer.
  void WriteTrace(std::ostream& out, const MetricsRegistry* metrics,
                  FunctionRef<void(std::ostream& out, bool& first)> write_spans) const;

  std::vector<Span> ring_;  // kCapacity slots from the first Emit on
  uint64_t emitted_ = 0;
  SpanSink* sink_ = nullptr;
  std::map<int32_t, std::string> process_names_;
  std::map<std::pair<int32_t, int32_t>, std::string> thread_names_;
};

// A SpanSink that streams a complete Chrome-trace export: each span is
// encoded into an anonymous temporary file as it is emitted, so memory does
// not grow with the span count. Attaches itself to the tracer on
// construction and detaches on destruction; it must not outlive it.
class ChromeTraceWriter : public SpanSink {
 public:
  explicit ChromeTraceWriter(SpanTracer& tracer);
  ~ChromeTraceWriter() override;
  ChromeTraceWriter(const ChromeTraceWriter&) = delete;
  ChromeTraceWriter& operator=(const ChromeTraceWriter&) = delete;

  void Add(const Span& span) override;
  void Reset() override;

  // Writes the whole trace: the same bytes SpanTracer::WriteChromeTrace
  // writes for the spans received since the last Reset, with the tracer's
  // track names as they are now. Throws std::runtime_error when the
  // temporary file fails.
  void Finish(std::ostream& out, const MetricsRegistry* metrics = nullptr);

 private:
  SpanTracer& tracer_;
  std::FILE* file_;
  uint64_t bytes_ = 0;  // encoded span events in file_
  std::string event_;   // encoding buffer, reused across spans
};

}  // namespace sprite

#endif  // SPRITE_DFS_SRC_OBS_TRACER_H_
