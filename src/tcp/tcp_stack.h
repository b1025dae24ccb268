// Simplified kernel TCP stack for the rpcgen-style baseline (paper §6.2).
// Real enough to exercise a reliable byte stream over the simulated links —
// 3-way handshake, MSS segmentation, cumulative ACKs, go-back-N retransmit,
// fixed flow-control window — while charging the kernel-crossing costs
// (syscalls, interrupt + wakeup, copies) that make socket RPC slow relative
// to RDMA. Congestion control is omitted: flows are short and the link
// uncontended, matching the paper's two-machine testbed.
#ifndef SRC_TCP_TCP_STACK_H_
#define SRC_TCP_TCP_STACK_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "src/cpu/cpu_model.h"
#include "src/netsim/arp_table.h"
#include "src/sim/simulator.h"
#include "src/tcp/segment.h"

namespace strom {

struct TcpConfig {
  uint32_t mss = 1448;            // 1500 - IP(20) - TCP(20) - margin
  uint32_t window = 256 * 1024;   // fixed advertised window
  SimTime rto = Ms(2);
  SimTime stack_tx_time = Us(1);  // kernel segmentation + header path per send
};

struct TcpCounters {
  uint64_t segments_sent = 0;
  uint64_t segments_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;
  uint64_t retransmits = 0;
};

class TcpStack;

class TcpConnection {
 public:
  using ReceiveCallback = std::function<void(ByteBuffer)>;

  bool established() const { return state_ == State::kEstablished; }

  // Enqueues application bytes (charged: syscall + copy); the stack segments
  // and transmits them as the window allows.
  void Send(ByteBuffer data);

  // In-order stream delivery to the application, after interrupt + wakeup.
  void SetReceiveCallback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

  void SetEstablishedCallback(std::function<void()> cb) { on_established_ = std::move(cb); }

  uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }

 private:
  friend class TcpStack;
  enum class State { kSynSent, kSynReceived, kEstablished };

  TcpConnection(TcpStack& stack, Ipv4Addr peer_ip, uint16_t local_port, uint16_t peer_port)
      : stack_(stack), peer_ip_(peer_ip), local_port_(local_port), peer_port_(peer_port) {}

  void PumpSend();
  void OnSegment(const TcpSegment& seg);
  void ArmTimer();
  void OnTimeout(uint64_t generation);

  TcpStack& stack_;
  Ipv4Addr peer_ip_;
  uint16_t local_port_;
  uint16_t peer_port_;
  State state_ = State::kSynSent;

  // Send side.
  uint32_t snd_una_ = 0;   // oldest unacknowledged
  uint32_t snd_nxt_ = 0;   // next sequence to send
  uint32_t iss_ = 0;       // initial send sequence
  std::deque<uint8_t> send_buffer_;  // bytes from snd_una_ onward
  uint64_t timer_generation_ = 0;
  bool timer_armed_ = false;

  // Receive side.
  uint32_t rcv_nxt_ = 0;
  std::map<uint32_t, ByteBuffer> out_of_order_;
  ReceiveCallback on_receive_;
  std::function<void()> on_established_;
};

class TcpStack {
 public:
  TcpStack(Simulator& sim, const CpuModel& cpu, Ipv4Addr ip, MacAddr mac, const ArpTable& arp,
           TcpConfig config = {});

  using FrameSender = std::function<void(ByteBuffer)>;
  using AcceptCallback = std::function<void(TcpConnection*)>;

  void SetFrameSender(FrameSender sender) { send_frame_ = std::move(sender); }
  void OnFrame(ByteBuffer frame);

  void Listen(uint16_t port, AcceptCallback on_accept);
  TcpConnection* Connect(Ipv4Addr dst_ip, uint16_t dst_port);

  const TcpCounters& counters() const { return counters_; }
  const TcpConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  const CpuModel& cpu() const { return cpu_; }

 private:
  friend class TcpConnection;
  struct ConnKey {
    Ipv4Addr peer_ip;
    uint16_t local_port;
    uint16_t peer_port;
    auto operator<=>(const ConnKey&) const = default;
  };

  void SendSegment(TcpConnection& conn, bool syn, ByteBuffer payload, uint32_t seq);
  void SendRawSegment(Ipv4Addr dst, uint16_t src_port, uint16_t dst_port, bool syn, bool ack,
                      uint32_t seq, uint32_t ack_no, ByteBuffer payload);

  Simulator& sim_;
  const CpuModel& cpu_;
  Ipv4Addr ip_;
  MacAddr mac_;
  const ArpTable& arp_;
  TcpConfig config_;
  FrameSender send_frame_;
  std::map<uint16_t, AcceptCallback> listeners_;
  std::map<ConnKey, std::unique_ptr<TcpConnection>> connections_;
  TcpCounters counters_;
  uint16_t next_ephemeral_port_ = 40000;
  uint32_t next_iss_ = 1;
};

}  // namespace strom

#endif  // SRC_TCP_TCP_STACK_H_
