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

void WriteEvent(std::ostream& out, bool& first, const std::string& event) {
  if (!first) {
    out << ",\n";
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

uint16_t SpanTracer::CategoryIndex(const char* category) {
  size_t i = 0;
  while (i < categories_.size() && categories_[i] != category) {
    ++i;
  }
  if (i == categories_.size()) {
    i = 0;
    while (i < categories_.size() && std::string_view(categories_[i]) != category) {
      ++i;
    }
  }
  if (i == categories_.size()) {
    if (i > UINT16_MAX) {
      throw std::length_error("SpanTracer: too many distinct span categories");
    }
    categories_.push_back(category);
  }
  return static_cast<uint16_t>(i);
}

void SpanTracer::Emit(const char* name, const char* category, SpanTrack track, SimTime start,
                      SimDuration duration, std::initializer_list<Span::Arg> args) {
  const size_t num_args = std::min<size_t>(args.size(), Span::kMaxArgs);
  headers_.push_back(SpanHeader{name, start, duration, track,
                                static_cast<uint32_t>(args_.size()), CategoryIndex(category),
                                static_cast<uint16_t>(num_args)});
  args_.insert(args_.end(), args.begin(), args.begin() + num_args);
}

Span SpanTracer::SpanAt(size_t i) const {
  const SpanHeader& h = headers_[i];
  Span span;
  span.name = h.name;
  span.category = categories_[h.category];
  span.track = h.track;
  span.start = h.start;
  span.duration = h.duration;
  span.num_args = h.num_args;
  std::copy_n(args_.begin() + h.first_arg, h.num_args, span.args);
  return span;
}

void SpanTracer::WriteChromeTrace(std::ostream& out,
                                  const MetricsRegistry* metrics) const {
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

  for (const Span span : spans()) {
    std::string e = "{\"ph\":\"X\",\"name\":\"";
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
    WriteEvent(out, first, e);
  }

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

}  // namespace sprite
