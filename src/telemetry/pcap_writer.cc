#include "src/telemetry/pcap_writer.h"

#include <utility>

#include "src/common/logging.h"

namespace strom {

namespace {

// pcapng block/option constants (https://datatracker.ietf.org/doc/html/
// draft-tuexen-opsawg-pcapng). Only the subset the taps need.
constexpr uint32_t kSectionHeaderBlock = 0x0A0D0D0A;
constexpr uint32_t kInterfaceDescriptionBlock = 0x00000001;
constexpr uint32_t kEnhancedPacketBlock = 0x00000006;
constexpr uint32_t kByteOrderMagic = 0x1A2B3C4D;
constexpr uint16_t kLinkTypeEthernet = 1;
constexpr uint16_t kOptEndOfOpt = 0;
constexpr uint16_t kOptComment = 1;
constexpr uint16_t kOptIfName = 2;
constexpr uint16_t kOptIfTsResol = 9;
// if_tsresol: power-of-ten exponent; 12 = picoseconds = SimTime units.
constexpr uint8_t kTsResolPicoseconds = 12;

// Little-endian block builder (pcapng is written in the section's byte
// order; we always emit little-endian and declare it via the magic).
class BlockWriter {
 public:
  void U16(uint16_t v) {
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    U16(static_cast<uint16_t>(v));
    U16(static_cast<uint16_t>(v >> 16));
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void Bytes(ByteSpan data) { buf_.insert(buf_.end(), data.begin(), data.end()); }
  void Pad4() {
    while (buf_.size() % 4 != 0) {
      buf_.push_back(0);
    }
  }
  void Option(uint16_t code, ByteSpan value) {
    U16(code);
    U16(static_cast<uint16_t>(value.size()));
    Bytes(value);
    Pad4();
  }
  void StringOption(uint16_t code, std::string_view value) {
    Option(code, ByteSpan(reinterpret_cast<const uint8_t*>(value.data()), value.size()));
  }
  void EndOptions() {
    U16(kOptEndOfOpt);
    U16(0);
  }

  // Finalizes a block: patches the total-length field (bytes 4..7 and the
  // trailing copy) once the body size is known.
  ByteBuffer Finish() {
    const uint32_t total = static_cast<uint32_t>(buf_.size() + 4);
    buf_[4] = static_cast<uint8_t>(total);
    buf_[5] = static_cast<uint8_t>(total >> 8);
    buf_[6] = static_cast<uint8_t>(total >> 16);
    buf_[7] = static_cast<uint8_t>(total >> 24);
    U32(total);
    return std::move(buf_);
  }

 private:
  ByteBuffer buf_;
};

}  // namespace

PcapWriter::PcapWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    status_ = UnavailableError("cannot open capture file: " + path);
    return;
  }
  BlockWriter shb;
  shb.U32(kSectionHeaderBlock);
  shb.U32(0);  // total length patched by Finish()
  shb.U32(kByteOrderMagic);
  shb.U16(1);  // major
  shb.U16(0);  // minor
  shb.U64(0xFFFFFFFFFFFFFFFFull);  // section length: unspecified
  shb.EndOptions();
  Append(shb.Finish());
}

PcapWriter::~PcapWriter() { (void)Close(); }

void PcapWriter::Append(const ByteBuffer& block) {
  if (!status_.ok() || !out_.is_open()) {
    return;
  }
  out_.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(block.size()));
  if (!out_) {
    status_ = UnavailableError("failed writing capture file: " + path_);
  }
}

uint32_t PcapWriter::AddInterface(const std::string& name) {
  STROM_CHECK_EQ(packets_written_, 0u) << "interfaces must precede packets";
  BlockWriter idb;
  idb.U32(kInterfaceDescriptionBlock);
  idb.U32(0);
  idb.U16(kLinkTypeEthernet);
  idb.U16(0);  // reserved
  idb.U32(0);  // snaplen: unlimited
  idb.StringOption(kOptIfName, name);
  idb.Option(kOptIfTsResol, ByteSpan(&kTsResolPicoseconds, 1));
  idb.EndOptions();
  Append(idb.Finish());
  return static_cast<uint32_t>(interface_count_++);
}

void PcapWriter::WritePacket(uint32_t interface_id, SimTime at, ByteSpan frame,
                             std::string_view comment, uint32_t orig_len) {
  STROM_CHECK_LT(interface_id, interface_count_);
  const uint64_t ts = static_cast<uint64_t>(at < 0 ? 0 : at);
  BlockWriter epb;
  epb.U32(kEnhancedPacketBlock);
  epb.U32(0);
  epb.U32(interface_id);
  epb.U32(static_cast<uint32_t>(ts >> 32));
  epb.U32(static_cast<uint32_t>(ts));
  epb.U32(static_cast<uint32_t>(frame.size()));  // captured length
  epb.U32(orig_len != 0 ? orig_len : static_cast<uint32_t>(frame.size()));  // original length
  epb.Bytes(frame);
  epb.Pad4();
  if (!comment.empty()) {
    epb.StringOption(kOptComment, comment);
  }
  epb.EndOptions();
  Append(epb.Finish());
  ++packets_written_;
}

Status PcapWriter::Close() {
  if (out_.is_open()) {
    out_.close();
    if (!out_ && status_.ok()) {
      status_ = UnavailableError("failed closing capture file: " + path_);
    }
  }
  return status_;
}

void PcapTap::Add(std::vector<Tap>& taps, int index, PcapWriter* writer,
                  const std::string& name0, const std::string& name1) {
  if (taps.size() <= size_t(index)) {
    taps.resize(size_t(index) + 1);
  }
  Tap& tap = taps[size_t(index)];
  tap.writer = writer;
  tap.iface[0] = writer->AddInterface(name0);
  tap.iface[1] = writer->AddInterface(name1);
}

void PcapTap::TapNic(int host, PcapWriter* writer, const std::string& process) {
  Add(nic_, host, writer, process + ".nic.tx", process + ".nic.rx");
}

void PcapTap::TapWire(int link, PcapWriter* writer, const std::string& name) {
  Add(wire_, link, writer, name + ".0to1", name + ".1to0");
}

void PcapTap::OnProbe(const ProbeEvent& ev) {
  const bool nic = ev.kind == ProbeKind::kNicTx || ev.kind == ProbeKind::kNicRx ||
                   ev.kind == ProbeKind::kNicRxDrop;
  const bool wire = ev.kind >= ProbeKind::kWireSend;
  const std::vector<Tap>& taps = nic ? nic_ : wire_;
  if (!(nic || wire) || size_t(ev.src) >= taps.size() || taps[size_t(ev.src)].writer == nullptr) {
    return;
  }
  const Tap& tap = taps[size_t(ev.src)];
  std::string comment;
  auto note = [&comment](const std::string& word) {
    if (!comment.empty()) {
      comment += ' ';
    }
    comment += word;
  };
  switch (ev.kind) {
    case ProbeKind::kNicRxDrop:
      note(ev.detail == kRxDropIcrc ? "rx_drop=icrc" : "rx_drop=malformed");
      break;
    case ProbeKind::kWireSend:
      if (ev.detail & kWireCorrupted) {
        note("corrupted");
      }
      if (ev.detail & kWireDelayed) {
        note("delayed");
      }
      break;
    case ProbeKind::kWireDrop:
      note("dropped");
      break;
    case ProbeKind::kWireDuplicate:
      note("duplicated");
      break;
    case ProbeKind::kWireOversize:
      note("oversize");
      break;
    default:
      break;
  }
  // Duplicates and oversize frames are fault artifacts: no trace id.
  if (ev.trace.sampled() && ev.kind != ProbeKind::kWireDuplicate &&
      ev.kind != ProbeKind::kWireOversize) {
    note("trace_id=" + std::to_string(ev.trace.id));
  }
  const bool second = nic ? ev.kind != ProbeKind::kNicTx : ev.side == 1;
  tap.writer->WritePacket(tap.iface[second ? 1 : 0], ev.t, *ev.frame, comment);
}

}  // namespace strom
