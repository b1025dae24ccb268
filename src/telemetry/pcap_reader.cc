#include "src/telemetry/pcap_reader.h"

#include <fstream>

namespace strom {

namespace {

constexpr uint32_t kSectionHeaderBlock = 0x0A0D0D0A;
constexpr uint32_t kInterfaceDescriptionBlock = 0x00000001;
constexpr uint32_t kEnhancedPacketBlock = 0x00000006;
constexpr uint32_t kByteOrderMagic = 0x1A2B3C4D;
constexpr uint16_t kOptEndOfOpt = 0;
constexpr uint16_t kOptComment = 1;
constexpr uint16_t kOptIfName = 2;
constexpr uint16_t kOptIfTsResol = 9;

uint16_t ReadU16(ByteSpan d, size_t off) {
  return static_cast<uint16_t>(d[off] | (d[off + 1] << 8));
}
uint32_t ReadU32(ByteSpan d, size_t off) {
  return static_cast<uint32_t>(d[off]) | (static_cast<uint32_t>(d[off + 1]) << 8) |
         (static_cast<uint32_t>(d[off + 2]) << 16) | (static_cast<uint32_t>(d[off + 3]) << 24);
}

// Walks the option list at `off`; invokes cb(code, value) per option.
template <typename Fn>
bool ForEachOption(ByteSpan body, size_t off, Fn cb) {
  while (off + 4 <= body.size()) {
    const uint16_t code = ReadU16(body, off);
    const uint16_t len = ReadU16(body, off + 2);
    off += 4;
    if (code == kOptEndOfOpt) {
      return true;
    }
    if (off + len > body.size()) {
      return false;
    }
    cb(code, body.subspan(off, len));
    off += (len + 3u) & ~3u;
  }
  return true;  // options are optional; running off the end without opt_end is fine
}

// Multiplier converting one timestamp unit to picoseconds, from if_tsresol.
SimTime TsUnitPs(uint8_t tsresol) {
  if ((tsresol & 0x80) != 0) {
    return 0;  // power-of-two resolutions unsupported
  }
  SimTime unit = 1;
  for (int e = tsresol; e < 12; ++e) {
    unit *= 10;
  }
  return tsresol <= 12 ? unit : 0;
}

}  // namespace

const std::string& CaptureFile::InterfaceName(uint32_t id) const {
  static const std::string kUnknown = "?";
  return id < interfaces.size() ? interfaces[id] : kUnknown;
}

Result<CaptureFile> ParsePcapng(ByteSpan data) {
  CaptureFile out;
  std::vector<SimTime> ts_unit_ps;  // per interface
  size_t off = 0;
  bool have_section = false;
  while (off + 12 <= data.size()) {
    const uint32_t type = ReadU32(data, off);
    const uint32_t total_len = ReadU32(data, off + 4);
    if (total_len < 12 || total_len % 4 != 0 || off + total_len > data.size()) {
      return InvalidArgumentError("pcapng: bad block length");
    }
    if (ReadU32(data, off + total_len - 4) != total_len) {
      return InvalidArgumentError("pcapng: trailing block length mismatch");
    }
    ByteSpan body = data.subspan(off + 8, total_len - 12);
    switch (type) {
      case kSectionHeaderBlock: {
        if (body.size() < 16 || ReadU32(body, 0) != kByteOrderMagic) {
          return InvalidArgumentError("pcapng: unsupported byte order or bad magic");
        }
        have_section = true;
        break;
      }
      case kInterfaceDescriptionBlock: {
        if (!have_section || body.size() < 8) {
          return InvalidArgumentError("pcapng: IDB outside section or truncated");
        }
        std::string name = "if" + std::to_string(out.interfaces.size());
        uint8_t tsresol = 6;  // pcapng default: microseconds
        if (!ForEachOption(body, 8, [&](uint16_t code, ByteSpan value) {
              if (code == kOptIfName) {
                name.assign(value.begin(), value.end());
              } else if (code == kOptIfTsResol && !value.empty()) {
                tsresol = value[0];
              }
            })) {
          return InvalidArgumentError("pcapng: truncated IDB option");
        }
        const SimTime unit = TsUnitPs(tsresol);
        if (unit == 0) {
          return InvalidArgumentError("pcapng: unsupported timestamp resolution");
        }
        out.interfaces.push_back(std::move(name));
        ts_unit_ps.push_back(unit);
        break;
      }
      case kEnhancedPacketBlock: {
        if (body.size() < 20) {
          return InvalidArgumentError("pcapng: truncated EPB");
        }
        CapturedPacket pkt;
        pkt.interface_id = ReadU32(body, 0);
        if (pkt.interface_id >= out.interfaces.size()) {
          return InvalidArgumentError("pcapng: EPB references unknown interface");
        }
        const uint64_t ts =
            (static_cast<uint64_t>(ReadU32(body, 4)) << 32) | ReadU32(body, 8);
        // Unsigned: a hostile timestamp wraps instead of overflowing.
        pkt.timestamp = static_cast<SimTime>(ts * uint64_t(ts_unit_ps[pkt.interface_id]));
        const uint32_t cap_len = ReadU32(body, 12);
        pkt.orig_len = ReadU32(body, 16);
        if (cap_len > body.size() - 20) {
          return InvalidArgumentError("pcapng: EPB data overruns block");
        }
        ByteSpan frame = body.subspan(20, cap_len);
        pkt.data.assign(frame.begin(), frame.end());
        const size_t opts = 20 + ((cap_len + 3u) & ~3u);
        if (!ForEachOption(body, opts, [&](uint16_t code, ByteSpan value) {
              if (code == kOptComment) {
                pkt.comment.assign(value.begin(), value.end());
              }
            })) {
          return InvalidArgumentError("pcapng: truncated EPB option");
        }
        out.packets.push_back(std::move(pkt));
        break;
      }
      default:
        break;  // skip unknown block types (name resolution, statistics, ...)
    }
    off += total_len;
  }
  if (!have_section) {
    return InvalidArgumentError("pcapng: missing section header");
  }
  if (off != data.size()) {
    return InvalidArgumentError("pcapng: trailing garbage after last block");
  }
  return out;
}

Result<CaptureFile> ReadPcapng(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return UnavailableError("cannot open capture file: " + path);
  }
  ByteBuffer data((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  return ParsePcapng(data);
}

}  // namespace strom
