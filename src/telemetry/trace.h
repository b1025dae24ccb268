// Per-packet span tracing over simulated time. Components register a named
// track once (a row in the exported timeline, grouped by process = node) and
// record spans against a TraceContext obtained from StartTrace(). Recording
// is append-only into a vector — no simulator events are scheduled and no
// timing is perturbed, so a traced run and an untraced run advance the
// simulated clock identically.
//
// Sampling: StartTrace() hands out a live context for 1-in-N started
// messages (N = sample_every); all other messages get the null context and
// every downstream instrumentation site skips on a single branch.
#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/telemetry/probe.h"
#include "src/telemetry/trace_context.h"

namespace strom {

// Index into Tracer's track table; kInvalidTrack before registration.
using TrackId = int32_t;
inline constexpr TrackId kInvalidTrack = -1;

class Tracer {
 public:
  struct Track {
    std::string process;  // e.g. "node0", "network"
    std::string name;     // e.g. "nic.tx", "dma", "wire 0->1"
  };

  struct Event {
    TrackId track = kInvalidTrack;
    std::string name;
    uint64_t trace_id = 0;
    SimTime begin = 0;
    SimTime end = 0;  // == begin for instant events
  };

  // Enables tracing; every `sample_every`-th StartTrace() is sampled.
  void Enable(uint32_t sample_every = 1);
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Hands out the context for a new message. Null context unless enabled
  // and this message falls on the sampling grid.
  TraceContext StartTrace() {
    if (!enabled_) {
      return TraceContext{};
    }
    if (started_++ % sample_every_ != 0) {
      return TraceContext{};
    }
    return TraceContext{next_trace_id_++};
  }

  // Registers a timeline row. Idempotence is the caller's job (components
  // register once at attach time).
  TrackId RegisterTrack(std::string process, std::string name);

  // Records a completed span [begin, end] on `track`. No-op for null
  // contexts or unregistered tracks.
  void Span(const TraceContext& ctx, TrackId track, std::string name, SimTime begin,
            SimTime end);
  void Instant(const TraceContext& ctx, TrackId track, std::string name, SimTime at) {
    Span(ctx, track, std::move(name), at, at);
  }

  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<Event>& events() const { return events_; }
  uint64_t traces_started() const { return next_trace_id_ - 1; }

  void Clear();

 private:
  bool enabled_ = false;
  uint32_t sample_every_ = 1;
  uint64_t started_ = 0;
  uint64_t next_trace_id_ = 1;
  std::vector<Track> tracks_;
  std::vector<Event> events_;
};

// The probe's span subscriber: "nic.tx" / "nic.rx" pipeline spans and
// "nic.msg" message spans per host, and one "wire" span per frame and
// direction on every link registered here. Subscribed for sampled traces
// only (Telemetry wires it), so it costs nothing while tracing is off.
class ProbeSpans : public ProbeSubscriber {
 public:
  explicit ProbeSpans(Tracer& tracer) : tracer_(tracer) {}

  // Register the tracks of host `host` / link `link` under `process`, at
  // the component's telemetry attach so the track order is stable.
  void AddNic(int host, const std::string& process);
  void AddWire(int link, const std::string& process);

  void OnProbe(const ProbeEvent& ev) override;

 private:
  Tracer& tracer_;
  std::vector<std::array<TrackId, 3>> nic_;   // by host: tx, rx, msg
  std::vector<std::array<TrackId, 2>> wire_;  // by link: side 0, side 1
};

}  // namespace strom

#endif  // SRC_TELEMETRY_TRACE_H_
