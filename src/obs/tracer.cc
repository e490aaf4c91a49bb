#include "src/obs/tracer.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace sprite {

namespace {

// Minimal JSON string escaping; names here are ASCII identifiers, but a
// metric or process name with a quote/backslash must not corrupt the file.
void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// The one span encoder: appends `span` as a Chrome "X" (complete) event.
void AppendSpanEvent(std::string& e, const Span& span) {
  char buf[128];
  e += "{\"ph\":\"X\",\"name\":\"";
  AppendEscaped(e, span.name);
  e += "\",\"cat\":\"";
  AppendEscaped(e, span.category);
  std::snprintf(buf, sizeof(buf), "\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,\"dur\":%lld",
                span.track.pid, span.track.tid, static_cast<long long>(span.start),
                static_cast<long long>(span.duration));
  e += buf;
  if (span.num_args > 0) {
    e += ",\"args\":{";
    for (int i = 0; i < span.num_args; ++i) {
      if (i > 0) {
        e += ",";
      }
      e += "\"";
      AppendEscaped(e, span.args[i].key);
      e += "\":";
      e += std::to_string(span.args[i].value);
    }
    e += "}";
  }
  e += "}";
}

// Event separator: every event but the first is preceded by one.
constexpr std::string_view kSeparator = ",\n";

void WriteEvent(std::ostream& out, bool& first, const std::string& event) {
  if (!first) {
    out << kSeparator;
  }
  first = false;
  out << event;
}

}  // namespace

int32_t CounterTrackPid(std::string_view name) {
  for (const auto& [prefix, base] :
       {std::pair<std::string_view, int32_t>{"server.", kServerPidBase},
        std::pair<std::string_view, int32_t>{"client.", kClientPidBase}}) {
    if (name.size() <= prefix.size() || name.substr(0, prefix.size()) != prefix) {
      continue;
    }
    int32_t id = 0;
    size_t i = prefix.size();
    bool any_digit = false;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9' && id < 100000) {
      id = id * 10 + (name[i] - '0');
      any_digit = true;
      ++i;
    }
    if (any_digit && i < name.size() && name[i] == '.') {
      return base + id;
    }
  }
  return kMetricsPid;
}

void SpanTracer::Emit(const char* name, const char* category, SpanTrack track, SimTime start,
                      SimDuration duration, std::initializer_list<Span::Arg> args) {
  if (ring_.empty()) {
    ring_.resize(kCapacity);
  }
  Span& span = ring_[emitted_ & (kCapacity - 1)];
  ++emitted_;
  span.name = name;
  span.category = category;
  span.track = track;
  span.start = start;
  span.duration = duration;
  span.num_args = static_cast<int>(std::min<size_t>(args.size(), Span::kMaxArgs));
  std::copy_n(args.begin(), span.num_args, span.args);
  if (sink_ != nullptr) {
    sink_->Add(span);
  }
}

void SpanTracer::WriteChromeTrace(std::ostream& out, const MetricsRegistry* metrics) const {
  std::string e;
  WriteTrace(out, metrics, [&](std::ostream& o, bool& first) {
    for (const Span& span : spans()) {
      e.clear();
      AppendSpanEvent(e, span);
      WriteEvent(o, first, e);
    }
  });
}

void SpanTracer::WriteTrace(std::ostream& out, const MetricsRegistry* metrics,
                            FunctionRef<void(std::ostream& out, bool& first)> write_spans) const {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[256];

  for (const auto& [pid, name] : process_names_) {
    std::string e = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    e += std::to_string(pid);
    e += ",\"tid\":0,\"args\":{\"name\":\"";
    AppendEscaped(e, name);
    e += "\"}}";
    WriteEvent(out, first, e);
  }
  for (const auto& [key, name] : thread_names_) {
    std::string e = "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    e += std::to_string(key.first);
    e += ",\"tid\":";
    e += std::to_string(key.second);
    e += ",\"args\":{\"name\":\"";
    AppendEscaped(e, name);
    e += "\"}}";
    WriteEvent(out, first, e);
  }

  write_spans(out, first);

  if (metrics != nullptr) {
    for (const MetricsSnapshot& snapshot : metrics->history()) {
      for (const MetricSample& s : snapshot.samples) {
        if (s.kind == MetricSample::Kind::kLatency) {
          continue;  // distributions do not render as counter tracks
        }
        std::string e = "{\"ph\":\"C\",\"name\":\"";
        AppendEscaped(e, s.name);
        std::snprintf(buf, sizeof(buf),
                      "\",\"pid\":%d,\"tid\":0,\"ts\":%lld,\"args\":{\"value\":%lld}}",
                      CounterTrackPid(s.name), static_cast<long long>(snapshot.time),
                      static_cast<long long>(s.value));
        e += buf;
        WriteEvent(out, first, e);
      }
    }
    if (!metrics->history().empty()) {
      std::string e = "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
      e += std::to_string(kMetricsPid);
      e += ",\"tid\":0,\"args\":{\"name\":\"metrics\"}}";
      WriteEvent(out, first, e);
    }
  }

  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

ChromeTraceWriter::ChromeTraceWriter(SpanTracer& tracer)
    : tracer_(tracer), file_(std::tmpfile()) {
  if (file_ == nullptr) {
    throw std::runtime_error("ChromeTraceWriter: cannot create a temporary file");
  }
  tracer_.SetSink(this);
}

ChromeTraceWriter::~ChromeTraceWriter() {
  if (tracer_.sink() == this) {
    tracer_.SetSink(nullptr);
  }
  std::fclose(file_);
}

void ChromeTraceWriter::Add(const Span& span) {
  // Every event is stored with its separator; Finish drops the first one
  // when no metadata event precedes the spans.
  event_ = kSeparator;
  AppendSpanEvent(event_, span);
  std::fwrite(event_.data(), 1, event_.size(), file_);
  bytes_ += event_.size();
}

void ChromeTraceWriter::Reset() {
  std::rewind(file_);
  bytes_ = 0;
}

void ChromeTraceWriter::Finish(std::ostream& out, const MetricsRegistry* metrics) {
  if (std::fflush(file_) != 0 || std::ferror(file_)) {
    throw std::runtime_error("ChromeTraceWriter: cannot write the temporary file");
  }
  std::rewind(file_);
  tracer_.WriteTrace(out, metrics, [this](std::ostream& o, bool& first) {
    char buf[1 << 16];
    uint64_t left = bytes_;
    size_t skip = first && left > 0 ? kSeparator.size() : 0;
    while (left > 0) {
      const size_t n = std::fread(buf, 1, std::min<uint64_t>(left, sizeof(buf)), file_);
      if (n == 0) {
        throw std::runtime_error("ChromeTraceWriter: cannot read the temporary file");
      }
      o.write(buf + skip, static_cast<std::streamsize>(n - skip));
      left -= n;
      skip = 0;
    }
    first = first && bytes_ == 0;
  });
  // Later spans append after the ones already written.
  std::fseek(file_, static_cast<long>(bytes_), SEEK_SET);
}

}  // namespace sprite
