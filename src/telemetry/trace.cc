#include "src/telemetry/trace.h"

#include <utility>

#include "src/common/logging.h"

namespace strom {

void Tracer::Enable(uint32_t sample_every) {
  STROM_CHECK_GE(sample_every, 1u);
  enabled_ = true;
  sample_every_ = sample_every;
}

TrackId Tracer::RegisterTrack(std::string process, std::string name) {
  tracks_.push_back(Track{std::move(process), std::move(name)});
  return static_cast<TrackId>(tracks_.size() - 1);
}

void Tracer::Span(const TraceContext& ctx, TrackId track, std::string name, SimTime begin,
                  SimTime end) {
  if (!ctx.sampled() || track == kInvalidTrack) {
    return;
  }
  STROM_CHECK_LT(static_cast<size_t>(track), tracks_.size());
  STROM_CHECK_LE(begin, end);
  events_.push_back(Event{track, std::move(name), ctx.id, begin, end});
}

void Tracer::Clear() {
  events_.clear();
  started_ = 0;
  next_trace_id_ = 1;
}

void ProbeSpans::AddNic(int host, const std::string& process) {
  if (nic_.size() <= size_t(host)) {
    nic_.resize(size_t(host) + 1, {kInvalidTrack, kInvalidTrack, kInvalidTrack});
  }
  nic_[size_t(host)] = {tracer_.RegisterTrack(process, "nic.tx"),
                        tracer_.RegisterTrack(process, "nic.rx"),
                        tracer_.RegisterTrack(process, "nic.msg")};
}

void ProbeSpans::AddWire(int link, const std::string& process) {
  if (wire_.size() <= size_t(link)) {
    wire_.resize(size_t(link) + 1, {kInvalidTrack, kInvalidTrack});
  }
  wire_[size_t(link)] = {tracer_.RegisterTrack(process, "wire 0->1"),
                         tracer_.RegisterTrack(process, "wire 1->0")};
}

void ProbeSpans::OnProbe(const ProbeEvent& ev) {
  const size_t src = size_t(ev.src);
  switch (ev.kind) {
    case ProbeKind::kNicTx:
      if (src < nic_.size()) {
        tracer_.Span(ev.trace, nic_[src][0], std::string("tx:") + ev.label, ev.begin, ev.end);
      }
      break;
    case ProbeKind::kNicRx:
      if (src < nic_.size()) {
        tracer_.Span(ev.trace, nic_[src][1], std::string("rx:") + ev.label, ev.begin, ev.end);
      }
      break;
    case ProbeKind::kCompletion:
      if (src < nic_.size()) {
        tracer_.Span(ev.trace, nic_[src][2], ev.label, ev.begin, ev.end);
      }
      break;
    case ProbeKind::kWireSend:
      if (src < wire_.size()) {
        tracer_.Span(ev.trace, wire_[src][size_t(ev.side)], "wire", ev.begin, ev.end);
      }
      break;
    default:
      break;
  }
}

}  // namespace strom
